package tensor

import (
	"sync"
	"sync/atomic"
)

// Size-class bounds for the arena, in float32 elements. Tensors below the
// smallest class are cheap enough for the regular allocator; above the
// largest, holding buffers alive between runs costs more memory than the
// allocation saves (sync.Pool releases them at GC anyway, but a 64 MiB
// class churns the pools for nothing).
const (
	arenaMinClassBits = 8  // 256 elems = 1 KiB
	arenaMaxClassBits = 24 // 16 Mi elems = 64 MiB
)

// Arena is a size-classed recycling allocator for intermediate activation
// tensors. Get hands out a zeroed tensor whose backing buffer (and Tensor
// header) come from a per-class sync.Pool; Release returns the tensor for
// reuse. The op executor threads one arena per engine through every kernel,
// so steady-state inference approaches zero allocations: a warm run's
// intermediates are exactly the recycled buffers of the previous run.
//
// All methods are safe for concurrent use and nil-safe: a nil *Arena
// degrades to the plain allocator (New) with Release a no-op, which is how
// arena-free paths (constant folding, the framework baseline) stay simple.
type Arena struct {
	classes [arenaMaxClassBits + 1]sync.Pool // classes[b] holds *Tensor with cap(data) == 1<<b

	hits      atomic.Int64 // Get served from a pool
	misses    atomic.Int64 // Get fell through to a fresh allocation
	unpooled  atomic.Int64 // Get for a size outside the class range
	recycled  atomic.Int64 // Release accepted a tensor back
	discarded atomic.Int64 // Release dropped a tensor (unpoolable / pinned)
}

// ArenaStats is a point-in-time snapshot of arena traffic counters.
type ArenaStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Unpooled  int64 `json:"unpooled"`
	Recycled  int64 `json:"recycled"`
	Discarded int64 `json:"discarded"`
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// sizeClass returns the pool index for an allocation of n elements, or -1
// when n falls outside the pooled range.
func sizeClass(n int) int {
	if n <= 0 {
		return -1
	}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if bits < arenaMinClassBits {
		bits = arenaMinClassBits
	}
	if bits > arenaMaxClassBits {
		return -1
	}
	return bits
}

// New returns a zero-filled tensor of the given shape, recycling a pooled
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
// (elementwise, copies, reductions); GEMM destinations must use New.
func (a *Arena) NewNoZero(shape ...int) *Tensor {
	t, _ := a.newRaw(shape...)
	return t
}

// newRaw is the shared allocation path; recycled reports whether the buffer
// came from a pool and may hold stale data (fresh allocations are zero).
func (a *Arena) newRaw(shape ...int) (t *Tensor, recycled bool) {
	n := checkedNumel(shape)
	if a == nil {
		return &Tensor{shape: cloneInts(shape), data: make([]float32, n)}, false
	}
	class := sizeClass(n)
	if class < 0 {
		a.unpooled.Add(1)
		return &Tensor{shape: cloneInts(shape), data: make([]float32, n)}, false
	}
	if v := a.classes[class].Get(); v != nil {
		t := v.(*Tensor)
		t.shape = append(t.shape[:0], shape...)
		t.data = t.data[:cap(t.data)][:n]
		a.hits.Add(1)
		return t, true
	}
	a.misses.Add(1)
	// Allocate at full class capacity so the buffer is poolable on Release.
	data := make([]float32, 1<<class)[:n]
	return &Tensor{shape: cloneInts(shape), data: data}, false
}

// Release returns t's buffer (and header) to the arena for reuse. The
// caller must guarantee no live reference to t or to views over its
// storage remains — the op executor's liveness plan enforces this for
// graph execution. Pinned tensors (weights) and tensors whose buffer does
// not match a size class are dropped. Safe on a nil arena or nil tensor.
func (a *Arena) Release(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	c := cap(t.data)
	if t.pin != nil || c == 0 || c&(c-1) != 0 {
		a.discarded.Add(1)
		return
	}
	class := sizeClass(c)
	if class < 0 || 1<<class != c {
		a.discarded.Add(1)
		return
	}
	a.recycled.Add(1)
	t.data = t.data[:c]
	a.classes[class].Put(t)
}

// Stats returns a snapshot of the arena's traffic counters.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{
		Hits:      a.hits.Load(),
		Misses:    a.misses.Load(),
		Unpooled:  a.unpooled.Load(),
		Recycled:  a.recycled.Load(),
		Discarded: a.discarded.Load(),
	}
}

// grabScratch returns a []float32 of exactly n elements for kernel-internal
// scratch (packed panels, im2col buffers). The contents are NOT zeroed —
// callers must fully overwrite it. Pair with dropScratch.
func (a *Arena) grabScratch(n int) ([]float32, *Tensor) {
	if a == nil {
		return make([]float32, n), nil
	}
	class := sizeClass(n)
	if class < 0 {
		a.unpooled.Add(1)
		return make([]float32, n), nil
	}
	if v := a.classes[class].Get(); v != nil {
		t := v.(*Tensor)
		t.shape = t.shape[:0]
		t.data = t.data[:cap(t.data)][:n]
		a.hits.Add(1)
		return t.data, t
	}
	a.misses.Add(1)
	t := &Tensor{data: make([]float32, 1<<class)[:n]}
	return t.data, t
}

// dropScratch returns a grabScratch buffer to the arena.
func (a *Arena) dropScratch(t *Tensor) {
	if a == nil || t == nil {
		return
	}
	a.Release(t)
}
