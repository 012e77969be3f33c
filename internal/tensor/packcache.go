package tensor

import "sync/atomic"

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
	buf []float32
	k   int // inner dimension the panels were packed for
	n   int // output columns
}

// The process-wide pack counters behind PackCacheSnapshot. Entries and
// bytes count the panels published since the last ResetPackCache; a panel
// that dies with its weight, or that a view of other dimensions replaces,
// stays counted. The per-weight truth is Tensor.PanelBytes.
var packHits, packMisses, packEntries, packBytes atomic.Int64

// PackCacheStats reports the packed-weight counters.
type PackCacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// PackCacheSnapshot returns the process-wide packed-weight counters:
// cumulative hits and misses, and the panels published since the last
// reset.
func PackCacheSnapshot() PackCacheStats {
	return PackCacheStats{
		Hits:    packHits.Load(),
		Misses:  packMisses.Load(),
		Entries: int(packEntries.Load()),
		Bytes:   packBytes.Load(),
	}
}

// ResetPackCache zeroes the published-panel counters (the benchmark's cold
// start). It leaves every weight's panels where they are: a weight built
// after the reset packs on its first product, one built before keeps its
// panels.
func ResetPackCache() {
	packEntries.Store(0)
	packBytes.Store(0)
}

// PanelBytes returns the bytes of packed panels published in t's pin
// record, and the record itself as an opaque key that every view of the
// weight shares, so a sum over operands can count each weight once. An
// unpinned tensor returns nil, 0.
func (t *Tensor) PanelBytes() (key any, bytes int64) {
	if t.pin == nil {
		return nil, 0
	}
	for i := range t.pin.panels {
		if p := t.pin.panels[i].Load(); p != nil {
			bytes += int64(4 * len(p.buf))
		}
	}
	return t.pin, bytes
}

func (p *panel) serves(k, n int) bool { return p != nil && p.k == k && p.n == n }

// packed returns the panels of the weight w in the given layout, packing
// them on first use. Concurrent first uses (serve replicas share weights)
// each pack, and the compare-and-swap keeps one: the losers return the
// winner's buffer, so exactly one copy stays resident. A panel packed for
// other dimensions (a re-dimensioned view) is replaced.
func (p *pin) packed(w []float32, k, n int, trans bool) []float32 {
	slot := &p.panels[0]
	if trans {
		slot = &p.panels[1]
	}
	old := slot.Load()
	if old.serves(k, n) {
		packHits.Add(1)
		return old.buf
	}
	packMisses.Add(1)
	fresh := &panel{buf: make([]float32, packedSize(k, n)), k: k, n: n}
	packWeight(fresh.buf, w, k, n, trans)
	for !slot.CompareAndSwap(old, fresh) {
		if old = slot.Load(); old.serves(k, n) {
			return old.buf
		}
	}
	packEntries.Add(1)
	packBytes.Add(int64(4 * len(fresh.buf)))
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
