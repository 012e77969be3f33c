package tensor

import (
	"runtime"
	"sync/atomic"
)

// Packed weight panels. Packing a B operand into tile-major panels is
// O(K·N) work per GEMM call; for weight matrices (dense layers, RNN
// projections, a matmul's constant RHS) the operand is identical on every
// inference, so a pinned tensor owns its panels: they are packed on the
// first product that reads the weight, published in its pin record, and
// live exactly as long as the weight does. Residency is therefore bounded
// by the model — at most the padded size of its GEMM weights per layout
// used — and needs no sizing; the garbage collector frees the panels with
// the model. Activations are packed into arena scratch and released
// immediately.

// pin is the record a pinned weight shares with every Reshape view of it.
// Each layout has its own slot because the same buffer may legitimately be
// packed both as a row-major B (matmul with a const RHS) and as a
// transposed B (dense layers).
type pin struct {
	panels [2]atomic.Pointer[panel] // [0] row-major B, [1] transposed B
}

// panel is one published packed layout. It is immutable once stored.
type panel struct {
	buf  []float32
	k    int // inner dimension the panels were packed for
	n    int // output columns
	held *resident
}

// resident is a published panel's entry in the residency count, and the
// object whose finalizer takes a dead weight's panel out of it. It is kept
// apart from the panel because a finalizer keeps everything its object
// reaches alive for one more collection cycle: hung on the pin record or
// the panel, that would be a dropped MT-DNN's 82 MB.
type resident struct {
	epoch *packEpoch
	bytes int64
}

// packEpoch counts the panels packed between two ResetPackCache calls. A
// panel carries the epoch it was packed in, which both invalidates it after
// a reset (its epoch is no longer the current one) and makes the accounting
// race-free: it is added to and removed from its own epoch's counters, and
// only the current epoch's are ever reported.
type packEpoch struct {
	entries atomic.Int64
	bytes   atomic.Int64
}

var (
	packHits   atomic.Int64
	packMisses atomic.Int64
	packNow    atomic.Pointer[packEpoch]
)

func init() { packNow.Store(new(packEpoch)) }

func (r *resident) enter() {
	r.epoch.entries.Add(1)
	r.epoch.bytes.Add(r.bytes)
	runtime.SetFinalizer(r, (*resident).leave)
}

// leave is the finalizer, and the explicit exit of a panel that lost the
// publication race or was replaced.
func (r *resident) leave() {
	runtime.SetFinalizer(r, nil)
	r.epoch.entries.Add(-1)
	r.epoch.bytes.Add(-r.bytes)
}

// PackCacheStats reports the packed-weight counters and residency.
type PackCacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// PackCacheSnapshot returns the process-wide packed-weight statistics:
// cumulative hits and misses, and the panels resident since the last reset.
func PackCacheSnapshot() PackCacheStats {
	e := packNow.Load()
	return PackCacheStats{
		Hits:    packHits.Load(),
		Misses:  packMisses.Load(),
		Entries: int(e.entries.Load()),
		Bytes:   e.bytes.Load(),
	}
}

// ResetPackCache invalidates every packed panel (tests, cold-start
// measurement): residency reads zero and the next product on a live weight
// packs it again, replacing the stale panel.
func ResetPackCache() { packNow.Store(new(packEpoch)) }

func (p *panel) serves(e *packEpoch, k, n int) bool {
	return p != nil && p.held.epoch == e && p.k == k && p.n == n
}

// packed returns the panels of the weight w in the given layout, packing
// them on first use. Concurrent first uses (serve replicas share weights)
// each pack, and the compare-and-swap keeps one: the losers return the
// winner's buffer, so exactly one copy stays resident. A panel packed for
// other dimensions or before the last reset is replaced.
func (p *pin) packed(w []float32, k, n int, trans bool) []float32 {
	slot := &p.panels[0]
	if trans {
		slot = &p.panels[1]
	}
	e := packNow.Load()
	old := slot.Load()
	if old.serves(e, k, n) {
		packHits.Add(1)
		return old.buf
	}
	packMisses.Add(1)
	sz := packedSize(k, n)
	fresh := &panel{buf: make([]float32, sz), k: k, n: n, held: &resident{epoch: e, bytes: int64(4 * sz)}}
	packWeight(fresh.buf, w, k, n, trans)
	fresh.held.enter() // before it can be seen, so only its replacer retires it
	for !slot.CompareAndSwap(old, fresh) {
		if old = slot.Load(); old.serves(e, k, n) {
			fresh.held.leave()
			return old.buf
		}
	}
	if old != nil {
		old.held.leave()
	}
	return fresh.buf
}

// packWeight fills bp with a weight's panels. It runs once per weight and
// layout, on the first request's critical path, so large weights fan out
// over column panels; the panels are disjoint copies, so the split cannot
// change a bit.
func packWeight(bp, w []float32, k, n int, trans bool) {
	panels := packedPanels(n)
	if parts, grain := fanOut(panels, float64(panels*k*nr)*nsStream); parts > 1 {
		ParallelForChunked(panels, parts, grain, func(lo, hi int) {
			packPanels(bp, w, k, n, trans, lo, hi)
		})
		return
	}
	packPanels(bp, w, k, n, trans, 0, panels)
}
