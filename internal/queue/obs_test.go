package queue

import (
	"testing"

	"duet/internal/obs"
)

// TestInstrumentCounts: pushes, pops, depth, and high-water depth are all
// recorded under the queue's label.
func TestInstrumentCounts(t *testing.T) {
	reg := obs.NewRegistry()
	q := New(8)
	q.Instrument(ResolveInstruments(reg, "cpu0"))

	for i := 0; i < 5; i++ {
		q.MustPush(i)
	}
	s := reg.Snapshot()
	if got := s.Counters[`duet_queue_pushes_total{queue="cpu0"}`]; got != 5 {
		t.Fatalf("pushes = %d, want 5", got)
	}
	if got := s.Gauges[`duet_queue_depth{queue="cpu0"}`]; got != 5 {
		t.Fatalf("depth = %g, want 5", got)
	}
	for i := 0; i < 5; i++ {
		if _, ok, _ := q.Pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
	s = reg.Snapshot()
	if got := s.Counters[`duet_queue_pops_total{queue="cpu0"}`]; got != 5 {
		t.Fatalf("pops = %d, want 5", got)
	}
	if got := s.Gauges[`duet_queue_depth{queue="cpu0"}`]; got != 0 {
		t.Fatalf("depth after drain = %g, want 0", got)
	}
	if got := s.Gauges[`duet_queue_depth_max{queue="cpu0"}`]; got != 5 {
		t.Fatalf("depth high-water = %g, want 5", got)
	}
}

// TestUninstrumentedNoop: the uninstrumented queue records nothing and
// panics nowhere.
func TestUninstrumentedNoop(t *testing.T) {
	q := New(4)
	q.MustPush(1)
	if v, ok, _ := q.Pop(); !ok || v != 1 {
		t.Fatalf("pop = (%d,%v), want (1,true)", v, ok)
	}
}
