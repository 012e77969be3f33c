// Package obs is DUET's dependency-free observability layer: a metrics
// registry (counters, gauges, latency histograms with exact percentile
// readout) and a per-request span recorder that generalises the runtime's
// Chrome-trace export. Everything is safe for concurrent use, and every
// instrument is nil-safe: a nil *Registry hands out nil instruments whose
// methods are no-ops, so instrumented hot paths pay only a couple of nil
// checks when observability is not enabled.
//
// The registry exposes its contents three ways: Prometheus text-format
// exposition (WritePrometheus), a JSON snapshot (Snapshot/WriteJSON) used
// by the serving example's live table, and direct programmatic readout
// (Counter.Value, Histogram.Quantile, ...).
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move both ways (queue depth, busy
// seconds, cache events).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d. No-op on a nil gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Max atomically raises the gauge to v if v is larger. No-op on nil.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// DefaultLatencyBuckets are exposition bucket bounds (seconds) spanning the
// virtual-clock latencies DUET's models produce, 1 µs .. ~4 s in powers of
// four.
var DefaultLatencyBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4,
}

// Histogram records a latency distribution two ways at once: fixed
// cumulative buckets for Prometheus exposition, and the exact samples for
// percentile readout. Quantile uses the same nearest-rank rule as
// stats.Summarize / vclock.Percentile, so histogram P50/P99/P99.9 agree
// exactly with the offline summaries on identical samples.
//
// Samples are retained until Reset; a serving layer that wants windowed
// percentiles snapshots and resets per window. Memory is 8 bytes per
// observation.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // bucket upper bounds, ascending
	counts  []uint64  // per-bucket (non-cumulative) counts; len(bounds)+1 with +Inf last
	samples []float64
	sum     float64
	sorted  bool
}

// newHistogram returns a histogram with the given bucket bounds (sorted
// copy; DefaultLatencyBuckets when empty).
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i]++
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Sum returns the sum of all observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the p-th percentile (0..100) by nearest rank over the
// exact samples — the same rule as vclock.Percentile, so the histogram and
// stats.Summarize agree on identical data. It returns 0 (ok=false) when no
// samples were observed.
func (h *Histogram) Quantile(p float64) (float64, bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0, false
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	return sortedQuantile(h.samples, p), true
}

// sortedQuantile is nearest-rank percentile over an ascending slice,
// mirroring vclock.Percentile (including its floating-point rank guard).
func sortedQuantile(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// Reset discards all observations (window rollover). No-op on nil.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.sum = 0
	h.sorted = false
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.mu.Unlock()
}

// buckets returns (upper bound, cumulative count) pairs plus the total,
// for exposition. The last bound is +Inf.
func (h *Histogram) buckets() (bounds []float64, cumulative []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	cumulative = make([]uint64, len(h.counts))
	var c uint64
	for i, n := range h.counts {
		c += n
		cumulative[i] = c
	}
	return bounds, cumulative
}

// Registry holds named instruments. The zero value is ready to use; a nil
// *Registry hands out nil instruments (all methods no-ops), which is how
// uninstrumented hot paths stay free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (DefaultLatencyBuckets when bounds is empty; bounds
// are ignored for an existing histogram). A nil registry returns a nil
// (no-op) histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = map[string]*Histogram{}
	}
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Series formats a metric name with label pairs in canonical (sorted,
// Prometheus-compatible) form: Series("duet_runs_total", "device", "cpu0")
// → `duet_runs_total{device="cpu0"}`. Odd trailing pairs are dropped.
func Series(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
