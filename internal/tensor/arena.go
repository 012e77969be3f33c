package tensor

import "sync"

// Arena is a recycling allocator for intermediate activation tensors and
// kernel scratch: one free list per exact element count. New pops the last
// tensor released at its size, buffer and Tensor header both, or allocates
// one; Release pushes a tensor back for reuse. The op executor threads one
// arena per engine through every kernel, and a model's intermediate shapes
// are fixed, so a warm run's buffers are exactly those the previous run
// released and steady-state inference allocates no buffer.
//
// Nothing drains the lists — no collection and no size limit — so an
// arena's memory is bounded by what it has served: per batch size, that
// size's working set (for each element count, the most buffers of that
// count live at once), summed over the batch sizes.
//
// All methods are safe for concurrent use and nil-safe: a nil *Arena
// degrades to the plain allocator with Release a no-op, which is how
// arena-free paths (constant folding, the framework baseline) stay simple.
type Arena struct {
	mu    sync.Mutex
	free  map[int][]*Tensor // by cap(data)
	stats ArenaStats
}

// ArenaStats is a point-in-time snapshot of arena traffic counters.
type ArenaStats struct {
	Hits   int64 `json:"hits"`   // New served from a free list
	Misses int64 `json:"misses"` // New allocated a fresh buffer
	// Unpooled is always zero: every size has a free list. It stays because
	// the benchmark harness reads it.
	Unpooled  int64 `json:"unpooled"`
	Recycled  int64 `json:"recycled"`  // Release pushed a tensor onto a free list
	Discarded int64 `json:"discarded"` // Release dropped a pinned or empty tensor
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{free: map[int][]*Tensor{}} }

// New returns a zero-filled tensor of the given shape, recycling a released
// buffer when one is available. A nil arena falls back to the plain
// allocator.
func (a *Arena) New(shape ...int) *Tensor {
	t, recycled := a.newRaw(shape...)
	if recycled {
		clear(t.data)
	}
	return t
}

// NewNoZero returns a tensor of the given shape whose contents are
// unspecified when recycled. For kernels that fully overwrite their output
// or scratch (elementwise, copies, reductions, packed panels, tape
// registers); GEMM destinations must use New.
func (a *Arena) NewNoZero(shape ...int) *Tensor {
	t, _ := a.newRaw(shape...)
	return t
}

// newRaw is the shared allocation path; recycled reports whether the buffer
// came from a free list and may hold stale data (fresh allocations are zero).
func (a *Arena) newRaw(shape ...int) (t *Tensor, recycled bool) {
	n := checkedNumel(shape)
	if a != nil {
		a.mu.Lock()
		if l := a.free[n]; len(l) > 0 {
			t = l[len(l)-1]
			l[len(l)-1] = nil
			a.free[n] = l[:len(l)-1]
			a.stats.Hits++
			a.mu.Unlock()
			t.shape = append(t.shape[:0], shape...)
			t.data = t.data[:n]
			return t, true
		}
		a.stats.Misses++
		a.mu.Unlock()
	}
	return &Tensor{shape: cloneInts(shape), data: make([]float32, n)}, false
}

// Release returns t's buffer (and header) to the arena for reuse. The
// caller must guarantee no live reference to t or to views over its
// storage remains — the op executor's liveness plan enforces this for
// graph execution. Pinned tensors (weights) and tensors with no storage
// are dropped. Safe on a nil arena or nil tensor.
func (a *Arena) Release(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	c := cap(t.data)
	a.mu.Lock()
	defer a.mu.Unlock()
	if t.pin != nil || c == 0 {
		a.stats.Discarded++
		return
	}
	a.stats.Recycled++
	a.free[c] = append(a.free[c], t)
}

// Held returns how many tensors the arena holds for reuse, per element
// count: what it retains between runs.
func (a *Arena) Held() map[int]int {
	held := map[int]int{}
	if a == nil {
		return held
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for n, l := range a.free {
		if len(l) > 0 {
			held[n] = len(l)
		}
	}
	return held
}

// Stats returns a snapshot of the arena's traffic counters.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}
