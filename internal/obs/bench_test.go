package obs

import "testing"

// BenchmarkNoOpPath measures the cost an uninstrumented hot path pays for
// carrying obs calls: a nil registry handing out nil instruments. This must
// stay in the low-nanosecond range so attaching the hooks to Run /
// RunParallel is free when observability is off.
func BenchmarkNoOpPath(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("duet_runs_total").Inc()
		r.Gauge("duet_busy_seconds").Add(1e-3)
		r.Histogram("duet_latency_seconds").Observe(1e-3)
	}
}

// BenchmarkCachedNoOp is the pattern the runtime actually uses: instruments
// resolved once per run, nil-checked per event.
func BenchmarkCachedNoOp(b *testing.B) {
	var r *Registry
	c := r.Counter("duet_runs_total")
	h := r.Histogram("duet_latency_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(1e-3)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}
