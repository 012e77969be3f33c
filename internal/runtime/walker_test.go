package runtime

import (
	"math"
	"slices"
	"strings"
	"testing"

	"duet/internal/vclock"
)

// tableSampler prices a walk from fixed tables: one duration per subgraph
// and one per (src, dst) lane pair, in microseconds.
type tableSampler struct {
	kernels  []float64
	transfer map[[2]int]float64
}

func (s tableSampler) Kernels(i, _ int) vclock.Seconds {
	return s.kernels[i] * 1e-6
}

func (s tableSampler) Transfer(_, src, dst int) vclock.Seconds {
	return s.transfer[[2]int{src, dst}] * 1e-6
}

// spanLog records what a walk did, in microseconds.
type spanLog struct {
	dispatched  [][4]float64 // subgraph, lane, start, end
	transferred [][5]float64 // value, src, dst, start, end
}

func (l *spanLog) Dispatched(i, lane int, start, dur vclock.Seconds) {
	l.dispatched = append(l.dispatched, [4]float64{float64(i), float64(lane), start * 1e6, (start + dur) * 1e6})
}

func (l *spanLog) Transferred(v, src, dst int, start, dur vclock.Seconds) {
	l.transferred = append(l.transferred, [5]float64{float64(v), float64(src), float64(dst), start * 1e6, (start + dur) * 1e6})
}

// TestWalkThreeLaneDiamond walks hb's three-device diamond fixture
//
//	sub0 (cpu0) → sub1 (gpu0) → sub3 (cpu0)
//	          ↘ sub2 (npu0) ↗
//
// on three lanes and compares every start and end with times computed by
// hand. Nothing in the walk is sized for two devices: the roster is the
// length of the clocks it is begun with. The 0 µs cpu0→gpu0 link puts
// sub0's output on two lanes at the same instant, so npu0's copy must come
// from the lowest-index holder (4 µs from cpu0, not 100 µs from gpu0).
func TestWalkThreeLaneDiamond(t *testing.T) {
	const cpu0, gpu0, npu0 = 0, 1, 2
	// Values: 0 the graph input, 1 sub0's output, 2 sub1's, 3 sub2's, 4
	// sub3's — the declared output.
	sk := &Skeleton{
		consumes: [][]int{{0}, {1}, {1}, {2, 3}},
		produces: [][]int{{1}, {2}, {3}, {4}},
		producer: []int{-1, 0, 1, 2, 3},
		bytes:    make([]int, 5),
		names:    []string{"x", "a", "b", "c", "y"},
		inputs:   1,
		outputs:  []int{4},
	}
	place := Placement{cpu0, gpu0, npu0, cpu0}
	log := &spanLog{}
	w := NewWalk(sk, tableSampler{
		kernels: []float64{10, 20, 30, 5},
		transfer: map[[2]int]float64{
			{cpu0, gpu0}: 0, {cpu0, npu0}: 4, {gpu0, npu0}: 100,
			{gpu0, cpu0}: 3, {npu0, cpu0}: 6,
		},
	}, log)
	clocks := make([]vclock.Seconds, 3)
	w.Begin(clocks, 0)
	latency := w.Latency(place)

	// Every dispatch pays the 2 µs sync-queue hop after its last input.
	wantDispatched := [][4]float64{
		{0, cpu0, 2, 12},  // input on the host at 0
		{1, gpu0, 14, 34}, // a arrives on gpu0 at 12 (0 µs link)
		{2, npu0, 18, 48}, // a arrives on npu0 at 12+4
		{3, cpu0, 56, 61}, // b back at 34+3, c back at 48+6; cpu0 free since 12
	}
	wantTransferred := [][5]float64{
		{1, cpu0, gpu0, 12, 12},
		{1, cpu0, npu0, 12, 16}, // tie between cpu0 and gpu0 at 12: lowest index
		{2, gpu0, cpu0, 34, 37},
		{3, npu0, cpu0, 48, 54},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if len(log.dispatched) != len(wantDispatched) || len(log.transferred) != len(wantTransferred) {
		t.Fatalf("walk recorded %d dispatches and %d transfers, want %d and %d",
			len(log.dispatched), len(log.transferred), len(wantDispatched), len(wantTransferred))
	}
	for k, want := range wantDispatched {
		for f := range want {
			if !near(log.dispatched[k][f], want[f]) {
				t.Errorf("dispatch %d = %v, want %v (subgraph, lane, start µs, end µs)", k, log.dispatched[k], want)
				break
			}
		}
	}
	for k, want := range wantTransferred {
		for f := range want {
			if !near(log.transferred[k][f], want[f]) {
				t.Errorf("transfer %d = %v, want %v (value, src, dst, start µs, end µs)", k, log.transferred[k], want)
				break
			}
		}
	}
	if !near(latency*1e6, 61) {
		t.Errorf("latency %v µs, want 61", latency*1e6)
	}
	if !near(clocks[cpu0]*1e6, 61) || !near(clocks[gpu0]*1e6, 34) || !near(clocks[npu0]*1e6, 48) {
		t.Errorf("device clocks %v, want [61 34 48] µs", clocks)
	}
}

// TestNewSkeletonRejectsUnorderedPartition: subgraphs that are not in
// dependency order fail once, at construction, not in every walk.
func TestNewSkeletonRejectsUnorderedPartition(t *testing.T) {
	p, _ := branchy(t)
	subs := p.Subgraphs()
	slices.Reverse(subs) // the concat head now precedes the branches feeding it
	if _, err := NewSkeleton(p.Parent, subs); err == nil || !strings.Contains(err.Error(), "consumed before production") {
		t.Fatalf("reversed partition accepted: %v", err)
	}
}

// TestTimingWalkAllocsConstant pins the cost of a timing-only walk: it
// records no spans, formats no labels and builds no maps, so what
// MeasureLatency allocates — the walk, its sampler and sink, clocks,
// availability table, sample slice — does not grow with the model. VGG-16 is
// one subgraph here and GoogLeNet 46; both must allocate the same handful.
func TestTimingWalkAllocsConstant(t *testing.T) {
	allocs := map[string]float64{}
	for _, ze := range zooEngines(t) {
		place := ze.places["alternating"]
		allocs[ze.name] = testing.AllocsPerRun(20, func() {
			if _, err := ze.e.MeasureLatency(place, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, n := range allocs {
		if n != allocs["vgg16"] || n > 8 {
			t.Errorf("%s: timing-only walk allocates %.0f objects, vgg16 %.0f; want equal and at most 8", name, n, allocs["vgg16"])
		}
	}
}
