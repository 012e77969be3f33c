package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The prices of the fan-out rule, in ns of one core's time, measured on a
// 2-vCPU Xeon (family 6 model 207, avx512 tier). Each names the benchmark
// that derives it.
const (
	// nsHandOff is one pool hand-off: BenchmarkPoolWake gap=0 read 67–76
	// µs from the send until the worker starts.
	nsHandOff = 70_000
	// nsStream is one streamed element of a copy or arithmetic loop:
	// BenchmarkParallelForOverhead at -cpu 1 runs 65,536 elements in 54–76
	// µs.
	nsStream = 1.0
	// nsTranscendental is one exp, tanh, sigmoid or GELU element of
	// expBatch / tanhBatch: BenchmarkTranscendentals' batch cells read
	// 3.3–6.8 ns/elem.
	nsTranscendental = 5.0
	// nsMAC is one multiply-accumulate of the packed GEMM on one core:
	// BenchmarkMatMul mtdnn_ffn64x512x2048 at -cpu 1 reads 55 GFLOP/s,
	// 27.5 G multiply-accumulates a second.
	nsMAC = 0.036
)

// fanOuts counts the decisions that split a loop; the tests that must reach
// the pooled path read it.
var fanOuts atomic.Int64

// fanOut is the one rule for spreading a loop of n independent items whose
// serial run costs about ns nanoseconds: it returns the parts to run it on
// (1 = serially on the caller) and the block grain. It splits over every
// worker when the time the helpers save, ns·(1 − 1/parts), beats a hand-off,
// into about four blocks per part, so a helper that wakes late claims fewer.
// The caller keeps claiming blocks while a helper wakes, so the split could
// pay from one hand-off up; the rule charges the whole hand-off because
// BenchmarkSplitBreakEven at -cpu 2 reads medians of 83 µs split against
// 66 µs serial for one hand-off's worth of streamed elements, 134 against
// 157 µs for two, and 227 against 296 µs for four; and a pool idle for a
// millisecond takes 0.14–1.3 ms to wake (BenchmarkPoolWake gap=1ms).
// Callers branch on parts before building the closure they would hand to
// ParallelForChunked, which keeps the serial path allocation-free.
func fanOut(n int, ns float64) (parts, grain int) {
	parts = min(effectiveWorkers(), n)
	if parts <= 1 || ns*float64(parts-1) <= nsHandOff*float64(parts) {
		return 1, n
	}
	fanOuts.Add(1)
	return parts, max(1, n/(4*parts))
}

// elemNs is one element's price under opcode op.
func elemNs(op ChainOp) float64 {
	switch op {
	case ChainSigmoid, ChainTanh, ChainGELU, ChainExp:
		return nsTranscendental
	}
	return nsStream
}

// The persistent worker pool, started lazily on the first parallel kernel
// with GOMAXPROCS workers for the life of the process; work is handed off
// through a buffered channel. Callers waiting for their blocks to finish
// help drain the queue, so nested or concurrent loops cannot deadlock even
// when every worker is busy.
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

// ParallelForChunked runs body over [0, n) in blocks of exactly grain
// iterations (the last block may be shorter) on parts tasks: the caller and
// parts-1 pool helpers claim blocks from one atomic cursor, so uneven
// blocks and a helper that starts late balance out. parts <= 1 runs
// body(0, n) inline. The caller owns block granularity — GEMM hands whole
// row panels to each invocation so packing and cache blocking stay aligned.
// body may be invoked concurrently; the call returns after every block
// completed.
func ParallelForChunked(n, parts, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	grain = max(grain, 1)
	blocks := (n + grain - 1) / grain
	if parts = min(parts, blocks); parts <= 1 {
		body(0, n)
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
			body(lo, min(lo+grain, n))
			if int(blocksDone.Add(1)) == blocks {
				close(done)
			}
		}
	}
	for i := 1; i < parts; i++ {
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
