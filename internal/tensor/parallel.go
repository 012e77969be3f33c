package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the minimum amount of work (elements touched) below
// which kernels run serially; handing work to the pool costs more than it
// saves on small tensors, and inference batch sizes are typically 1.
const parallelThreshold = 1 << 12

// The persistent worker pool. Hot kernels used to spawn goroutines (plus a
// WaitGroup) on every call; at inference rates that dispatch overhead
// dominates small kernels. The pool is started lazily on the first parallel
// kernel, holds GOMAXPROCS workers for the life of the process, and hands
// work off through a buffered channel. Callers waiting for their chunks to
// finish help drain the queue, so nested or concurrent ParallelFor calls
// cannot deadlock even when every worker is busy.
var (
	poolOnce    sync.Once
	poolTasks   chan func()
	poolWorkers int
	// maxWorkers caps the fan-out width (0 = GOMAXPROCS). Settable by
	// benchmarks to force serial execution; see SetMaxWorkers.
	maxWorkers atomic.Int32
)

func startPool() {
	poolWorkers = runtime.GOMAXPROCS(0)
	poolTasks = make(chan func(), 256)
	for i := 0; i < poolWorkers; i++ {
		go func() {
			for f := range poolTasks {
				f()
			}
		}()
	}
}

// SetMaxWorkers caps the number of chunks a parallel kernel fans out to.
// n <= 1 forces fully serial (inline) execution; 0 restores the default
// (GOMAXPROCS). It is intended for benchmarks that compare serial vs pooled
// execution; the cap applies to calls that start after it is set.
func SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	maxWorkers.Store(int32(n))
}

// effectiveWorkers returns the current fan-out width.
func effectiveWorkers() int {
	w := int(maxWorkers.Load())
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// worthSplitting reports whether a loop of n independent iterations, each
// touching about per elements, should be fanned out: the serial cut-off is
// on the work, not on the iteration count — a pooling or normalisation
// kernel has a few hundred planes of thousands of elements each. Callers
// branch on it before building the closure they would hand to
// ParallelForChunked, which keeps the serial path allocation-free.
func worthSplitting(n, per int) bool {
	return n > 1 && n*per >= parallelThreshold && effectiveWorkers() > 1
}

// planeGrain is the block size for ParallelForChunked over n independent
// planes or rows: about four blocks per worker, so uneven blocks balance.
func planeGrain(n int) int {
	return max(1, n/(4*effectiveWorkers()))
}

// stepLoop runs body(step, part) for every step in [0, steps) and part in
// [0, parts): the parts of one step are independent, and every part of
// step s finishes before any part of step s+1 starts. It is the fan-out for
// loops whose steps are too short for a hand-off each — a parked pool
// worker takes tens of microseconds to start (BenchmarkPoolWake), as long
// as a whole RNN step — so the pool is offered parts-1 helpers once, with
// non-blocking sends, and the caller and whichever helpers start claim
// (step, part) items in order from one cursor. An item of step s+1 yields
// until every item of step s is done. Nothing waits for a helper to start:
// the caller runs whatever no helper claimed, so a full queue or busy
// workers (concurrent sequences, serve replicas) leave today's serial loop,
// and a helper that starts after the loop has ended claims nothing. body
// must not call the pool: a goroutine waiting in ParallelForChunked may run
// a helper inline.
func stepLoop(steps, parts int, body func(step, part int)) {
	total := steps * parts
	if parts <= 1 || steps <= 0 {
		for i := 0; i < total; i++ {
			body(i/parts, i%parts)
		}
		return
	}
	poolOnce.Do(startPool)
	var next, done atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= total {
				return
			}
			for first := int64(i - i%parts); done.Load() < first; {
				runtime.Gosched()
			}
			body(i/parts, i%parts)
			done.Add(1)
		}
	}
	for i := 1; i < parts; i++ {
		select {
		case poolTasks <- run:
		default:
		}
	}
	run()
	for done.Load() < int64(total) {
		runtime.Gosched()
	}
}

// ParallelFor splits [0, n) into contiguous chunks and runs body on each
// chunk using the persistent worker pool. body receives [lo, hi). Small
// ranges run inline on the calling goroutine. The calling goroutine
// executes one chunk itself and helps drain the pool while waiting, so the
// pool can never deadlock on nested parallelism.
func ParallelFor(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := effectiveWorkers()
	if n < parallelThreshold || w <= 1 {
		body(0, n)
		return
	}
	if w > n {
		w = n
	}
	poolOnce.Do(startPool)
	chunk := (n + w - 1) / w
	var remaining atomic.Int32
	remaining.Store(int32((n + chunk - 1) / chunk))
	done := make(chan struct{})
	finish := func() {
		if remaining.Add(-1) == 0 {
			close(done)
		}
	}
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		poolTasks <- func() {
			body(lo, hi)
			finish()
		}
	}
	body(0, chunk)
	finish()
	for {
		select {
		case <-done:
			return
		case f := <-poolTasks:
			f()
		}
	}
}

// ParallelForChunked runs body over [0, n) in blocks of exactly grain
// iterations (the last block may be shorter), letting the caller own block
// granularity — GEMM hands whole row panels to each invocation so packing
// and cache blocking stay aligned. Blocks are claimed dynamically via an
// atomic cursor, so uneven blocks load-balance across workers. body may be
// invoked concurrently; the call returns after every block completed.
func ParallelForChunked(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	blocks := (n + grain - 1) / grain
	w := effectiveWorkers()
	if w > blocks {
		w = blocks
	}
	if w <= 1 {
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
		return
	}
	poolOnce.Do(startPool)
	var cursor atomic.Int32
	var blocksDone atomic.Int32
	done := make(chan struct{})
	runBlocks := func() {
		for {
			b := int(cursor.Add(1)) - 1
			if b >= blocks {
				return
			}
			lo := b * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
			if int(blocksDone.Add(1)) == blocks {
				close(done)
			}
		}
	}
	for i := 1; i < w; i++ {
		poolTasks <- runBlocks
	}
	runBlocks()
	for {
		select {
		case <-done:
			return
		case f := <-poolTasks:
			f()
		}
	}
}
