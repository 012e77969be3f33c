package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Edge shapes for the packed-kernel property tests: degenerate rows/cols,
// prime dims, K on and around the packKC slab boundary, sizes off the 8×16,
// 4×16 and 1×32 register-tile grid in every dimension, and products large
// enough to take each split of gemmPacked's block grid.
var packedShapes = [][3]int{
	{1, 17, 1},     // 1×N and N×1 territory
	{1, 1, 1},      // scalar-sized
	{1, 1024, 7},   // single row, wide K
	{23, 1, 5},     // single inner dim
	{5, 3, 1},      // N=1 (single output column)
	{7, 13, 17},    // all prime
	{31, 29, 37},   // all prime, larger
	{4, 8, 8},      // one row tile, one panel
	{4, 8, 16},     // exactly one 4×16 tile
	{1, 8, 32},     // exactly one 1×32 tile
	{8, 16, 16},    // whole tiles only
	{12, 9, 16},    // an 8-row tile, then a 4-row tile on the same panel pair
	{15, 260, 24},  // 8 + 4 + 3 rows across a slab; the odd panel takes 4-row tiles only
	{6, 10, 9},     // off-grid in every dim
	{5, 1, 24},     // K=1; N = 16+8: an odd trailing panel
	{7, 2, 40},     // N = 32+8: 1×32 group plus a single panel
	{3, 9, 33},     // N one past 32: partial fifth panel for the 1-row tile
	{9, 9, 49},     // N one past 48: partial panel closing a 4×16 pair
	{5, 300, 9},    // K > packKC
	{6, 255, 20},   // K one short of the slab
	{6, 256, 20},   // K exactly one slab
	{6, 257, 20},   // K one past the slab
	{5, 513, 19},   // K straddles two slab boundaries
	{64, 300, 64},  // K > packKC, multiple row tiles
	{130, 5, 12},   // M spans multiple packMC blocks with leftovers
	{3, 300, 1300}, // parallel, M < mr: column blocks of 1×32 sweeps
	{70, 130, 200}, // parallel, two row blocks × column blocks
	{330, 70, 60},  // parallel, row blocks only
	{66, 260, 501}, // parallel grid with ragged edges everywhere
}

// TestMatMulPackedBitExact bit-compares the packed kernel against the naive
// triple loop: the load-accumulate-store microkernel keeps every output
// element's accumulation strictly k-ascending, so the results must be
// identical, not merely close.
func TestMatMulPackedBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range packedShapes {
		m, k, n := s[0], s[1], s[2]
		a := Rand(rng, 1, m, k)
		b := Rand(rng, 1, k, n)
		got := MatMulInto(nil, a, b, nil)
		want := MatMulNaive(a, b)
		if !bitEqual(got, want) {
			t.Errorf("MatMul %dx%dx%d differs from naive (max |Δ| %g)", m, k, n, MaxAbsDiff(got, want))
		}
	}
}

// TestOneSweepBitExact holds the blocks that sweep K in one pass — at most
// one two-panel column group — and the lone-panel 8-row tile to the naive
// references bit for bit, with K past several packKC slabs: MatMul against
// MatMulNaive and a batch-1 3×3 conv against Conv2DNaive, over 1, 2 and 3
// panels (3 keeps the slabs, its last panel a lone one) at full and partial
// width, and 8, 12, 64 and 512 rows (one 8-row tile; 8 + 4; whole packMC
// blocks), serially and at width 2.
func TestOneSweepBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	defer SetMaxWorkers(0)
	for _, rows := range []int{8, 12, 64, 512} {
		for np := 1; np <= 3; np++ {
			for _, n := range []int{np * nr, np*nr - 3} {
				a := Rand(rng, 1, rows, 3*packKC+5)
				b := Rand(rng, 1, 3*packKC+5, n)
				want := MatMulNaive(a, b)
				for _, workers := range []int{1, 2} {
					SetMaxWorkers(workers)
					if got := MatMulInto(nil, a, b, nil); !bitEqual(got, want) {
						t.Errorf("MatMul %dx%dx%d workers=%d differs from naive (max |Δ| %g)", rows, 3*packKC+5, n, workers, MaxAbsDiff(got, want))
					}
				}
			}
			// 48 channels of 3×3 patches: K = 432. A 1×plane image with
			// pad 1 gives plane output positions, np·nr or 3 fewer.
			for _, plane := range []int{np * nr, np*nr - 3} {
				x := Rand(rng, 1, 1, 48, 1, plane)
				w := Rand(rng, 1, rows, 48, 3, 3)
				bias := Rand(rng, 1, rows)
				want := Conv2DNaive(x, w, bias, 1, 1)
				for _, workers := range []int{1, 2} {
					SetMaxWorkers(workers)
					if got := Conv2DInto(nil, x, w, bias, 1, 1, nil); !bitEqual(got, want) {
						t.Errorf("Conv2D %d filters over %d positions workers=%d differs from naive (max |Δ| %g)", rows, plane, workers, MaxAbsDiff(got, want))
					}
				}
			}
		}
	}
}

// TestMatMulIntoArenaBitExact runs the same comparison through an arena with
// buffer recycling: a warm (recycled, stale-data) destination must produce
// the same bits as a cold one.
func TestMatMulIntoArenaBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ar := NewArena()
	for _, s := range packedShapes {
		m, k, n := s[0], s[1], s[2]
		a := Rand(rng, 1, m, k)
		b := Rand(rng, 1, k, n)
		want := MatMulNaive(a, b)
		for pass := 0; pass < 3; pass++ {
			got := MatMulInto(nil, a, b, ar)
			if !bitEqual(got, want) {
				t.Fatalf("MatMulInto %dx%dx%d pass %d differs from naive", m, k, n, pass)
			}
			ar.Release(got)
		}
	}
	if st := ar.Stats(); st.Hits == 0 {
		t.Errorf("arena recorded no hits across repeated runs: %+v", st)
	}
}

// TestLinearPackedBitExact checks the dense kernel (transposed weight
// packing) against an explicit k-ascending reference, bias folded in the
// epilogue pass.
func TestLinearPackedBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range packedShapes {
		m, k, n := s[0], s[1], s[2]
		x := Rand(rng, 1, m, k)
		w := Rand(rng, 1, n, k)
		bias := Rand(rng, 1, n)
		got := LinearInto(nil, x, w, bias, nil)
		want := linearNaive(x, w, bias)
		if !bitEqual(got, want) {
			t.Errorf("Linear %dx%dx%d differs from naive reference", m, k, n)
		}
	}
}

// TestFusedEpiloguesBitExact checks that the fused Linear+epilogue-program
// kernels produce exactly the bits of the unfused composition.
func TestFusedEpiloguesBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, s := range packedShapes {
		m, k, n := s[0], s[1], s[2]
		x := Rand(rng, 1, m, k)
		w := Rand(rng, 1, n, k)
		bias := Rand(rng, 1, n)
		relu := mustCompileChain(t, []Instr{{Op: ChainReLU}}, []int{m, n}, nil)
		sigm := mustCompileChain(t, []Instr{{Op: ChainSigmoid}}, []int{m, n}, nil)
		base := LinearInto(nil, x, w, bias, nil)
		if got := LinearChainInto(nil, x, w, bias, relu, nil, nil, nil); !bitEqual(got, ReLUInto(nil, base, nil)) {
			t.Errorf("LinearChain ReLU %dx%dx%d differs from unfused", m, k, n)
		}
		if got := LinearChainInto(nil, x, w, bias, sigm, nil, nil, nil); !bitEqual(got, SigmoidInto(nil, base, nil)) {
			t.Errorf("LinearChain Sigmoid %dx%dx%d differs from unfused", m, k, n)
		}
		noBias := LinearInto(nil, x, w, nil, nil)
		if got := LinearChainInto(nil, x, w, nil, relu, nil, nil, nil); !bitEqual(got, ReLUInto(nil, noBias, nil)) {
			t.Errorf("LinearChain ReLU (nil bias) %dx%dx%d differs from unfused", m, k, n)
		}
	}
}

// TestBatchMatMulPackedBitExact compares the batched packed kernel against
// per-batch naive multiplication.
func TestBatchMatMulPackedBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range [][4]int{{1, 1, 5, 1}, {3, 7, 13, 17}, {2, 4, 300, 9}, {4, 130, 5, 12}} {
		bs, m, k, n := s[0], s[1], s[2], s[3]
		a := Rand(rng, 1, bs, m, k)
		b := Rand(rng, 1, bs, k, n)
		got := BatchMatMulInto(nil, a, b, nil)
		for i := 0; i < bs; i++ {
			ai := FromSlice(a.data[i*m*k:(i+1)*m*k], m, k)
			bi := FromSlice(b.data[i*k*n:(i+1)*k*n], k, n)
			want := MatMulNaive(ai, bi)
			gi := FromSlice(got.data[i*m*n:(i+1)*m*n], m, n)
			if !bitEqual(gi, want) {
				t.Errorf("BatchMatMul batch %d of %v differs from naive", i, s)
			}
		}
	}
}

// TestPackTransposedMatchesGo holds packBTransposed — 8×8 register
// transposes over the full panels from the AVX2 tier up — to the Go loop,
// packBTransposedGo: one full panel, a ragged one, MT-DNN's QKV width and a
// ragged width past the FFN's, K under, at and past whole blocks of eight,
// rows k or k+5 apart (attention packs kₕᵀ from the strided qkv), and a
// range of panels that starts past the first. Every slot the range covers
// must be written, and none outside it.
func TestPackTransposedMatchesGo(t *testing.T) {
	nan := float32(math.NaN())
	for _, n := range []int{8, 9, 15, 16, 1536, 2048 + 3} {
		for _, k := range []int{1, 7, 256, 257} {
			for _, ld := range []int{k, k + 5} {
				w := Rand(NewRNG(int64(n*k+ld)), 1, n*ld).Data()
				np := packedPanels(n)
				for _, r := range [][2]int{{0, np}, {np / 2, np}} {
					want := make([]float32, packedSize(k, n))
					got := make([]float32, len(want))
					for i := range want {
						want[i], got[i] = nan, nan
					}
					packBTransposedGo(want, w, k, n, ld, r[0], r[1])
					packBTransposed(got, w, k, n, ld, r[0], r[1])
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("n=%d k=%d ld=%d panels [%d, %d): slot %d (panel %d, row %d, column %d) is %v, Go loop %v",
								n, k, ld, r[0], r[1], i, i/(k*nr), i%(k*nr)/nr, i%nr, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestPackCacheReuse verifies pinned weights are packed once and keep
// their panels for later calls (reported once for the weight and its
// views), and that unpinned operands never leave a resident panel.
func TestPackCacheReuse(t *testing.T) {
	ResetPackCache()
	rng := rand.New(rand.NewSource(13))
	x := Rand(rng, 1, 3, 64)
	w := Rand(rng, 1, 32, 64).MarkPinned()
	before := PackCacheSnapshot()
	LinearInto(nil, x, w, nil, nil)
	LinearInto(nil, x, w, nil, nil)
	LinearInto(nil, x, w, nil, nil)
	st := PackCacheSnapshot()
	if st.Entries != before.Entries+1 {
		t.Fatalf("want one new cache entry, got %d -> %d", before.Entries, st.Entries)
	}
	if hits := st.Hits - before.Hits; hits != 2 {
		t.Errorf("want 2 cache hits, got %d", hits)
	}
	key, b := w.PanelBytes()
	if vkey, vb := w.Reshape(64, 32).PanelBytes(); vkey != key || vb != b || b != int64(4*packedSize(64, 32)) {
		t.Errorf("weight and view report %d and %d panel bytes (same record: %v), want %d", b, vb, vkey == key, 4*packedSize(64, 32))
	}
	u := Rand(rng, 1, 32, 64) // unpinned
	LinearInto(nil, x, u, nil, nil)
	if after := PackCacheSnapshot(); after.Entries != st.Entries {
		t.Errorf("unpinned operand left a resident panel: %d -> %d", st.Entries, after.Entries)
	}
	if ukey, ub := u.PanelBytes(); ukey != nil || ub != 0 {
		t.Errorf("unpinned operand reports panels: %v, %d", ukey, ub)
	}
	ResetPackCache()
	if after := PackCacheSnapshot(); after.Entries != 0 || after.Bytes != 0 {
		t.Errorf("ResetPackCache left residue: %+v", after)
	}
}

// TestArenaRecycling checks the hit/release cycle, stale-data zeroing, and
// the pinned-tensor guard.
func TestArenaRecycling(t *testing.T) {
	ar := NewArena()
	a := ar.New(16, 16)
	for i := range a.Data() {
		a.Data()[i] = 42
	}
	ar.Release(a)
	b := ar.New(16, 16)
	for i, v := range b.Data() {
		if v != 0 {
			t.Fatalf("recycled tensor not zeroed at %d: %g", i, v)
		}
	}
	if st := ar.Stats(); st.Hits != 1 || st.Recycled != 1 {
		t.Errorf("want 1 hit / 1 recycle, got %+v", st)
	}
	p := ar.New(16, 16)
	p.MarkPinned()
	ar.Release(p)
	if st := ar.Stats(); st.Discarded != 1 {
		t.Errorf("pinned tensor should be discarded on release, got %+v", st)
	}
	// nil arena degrades to the plain allocator.
	var nilAr *Arena
	c := nilAr.New(4, 4)
	if c.Numel() != 16 {
		t.Error("nil arena New broken")
	}
	nilAr.Release(c)
}

// TestParallelForChunkedCoversRange verifies every index is visited exactly
// once and blocks respect the requested grain.
func TestParallelForChunkedCoversRange(t *testing.T) {
	const n, grain = 10_000, 64
	var counts [n]int32
	ParallelForChunked(n, 2, grain, func(lo, hi int) {
		if (hi-lo) != grain && hi != n {
			t.Errorf("interior block [%d,%d) violates grain %d", lo, hi, grain)
		}
		if lo%grain != 0 {
			t.Errorf("block start %d not grain-aligned", lo)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// TestStepLoopOrdersSteps runs the step-loop primitive at width 3 and
// checks that every (step, part) item runs once and that no item starts
// before every part of the previous step finished. Item (0, 0) runs on the
// caller and holds until item (0, 1) has started, which only a helper can
// claim meanwhile: the helpers really join.
func TestStepLoopOrdersSteps(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(3)
	const steps, parts = 50, 3
	var finished [steps]atomic.Int32
	var joined atomic.Bool
	stepLoop(steps, parts, func(step, part int) {
		if step > 0 && finished[step-1].Load() != parts {
			t.Errorf("step %d part %d started before step %d finished", step, part, step-1)
		}
		switch {
		case step == 0 && part == 1:
			joined.Store(true)
		case step == 0 && part == 0:
			for deadline := time.Now().Add(10 * time.Second); !joined.Load(); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Error("no helper claimed item (0, 1) within 10 s")
					break
				}
			}
		}
		finished[step].Add(1)
	})
	for s := range finished {
		if got := finished[s].Load(); got != parts {
			t.Fatalf("step %d ran %d parts, want %d", s, got, parts)
		}
	}
	var order []int
	stepLoop(4, 1, func(step, part int) { order = append(order, step*10+part) })
	stepLoop(0, 2, func(step, part int) { t.Errorf("body called for zero steps") })
	if want := []int{0, 10, 20, 30}; !slices.Equal(order, want) {
		t.Fatalf("one part ran %v, want %v", order, want)
	}
}

// TestWorkerPoolNestedAndConcurrent hammers the persistent pool with nested
// and concurrent parallel loops at width 2; under -race this doubles as the
// pool's race-detector pass, and any lost task would deadlock the test. The
// outer range is sized from the fan-out rule: four hand-offs' worth of
// streamed elements.
func TestWorkerPoolNestedAndConcurrent(t *testing.T) {
	const outer, n = 8, int(4 * nsHandOff / nsStream)
	SetMaxWorkers(2)
	defer SetMaxWorkers(0)
	parts, grain := fanOut(n, float64(n)*nsStream)
	if parts < 2 {
		t.Fatalf("%d streamed elements run on %d part, want a fan-out", n, parts)
	}
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < outer; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ParallelForChunked(n, parts, grain, func(lo, hi int) {
				// Nested parallel call from inside a pool task.
				ParallelForChunked(hi-lo, 2, 512, func(l, h int) {
					total.Add(int64(h - l))
				})
			})
		}()
	}
	wg.Wait()
	if want := int64(outer * n); total.Load() != want {
		t.Fatalf("nested loops covered %d iterations, want %d", total.Load(), want)
	}
}

// TestSetMaxWorkersSerial pins the serial path: results must match pooled
// execution bit-for-bit (same chunk-independent accumulation).
func TestSetMaxWorkersSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := Rand(rng, 1, 70, 90)
	b := Rand(rng, 1, 90, 50)
	pooled := MatMulInto(nil, a, b, nil)
	SetMaxWorkers(1)
	serial := MatMulInto(nil, a, b, nil)
	SetMaxWorkers(0)
	if !bitEqual(pooled, serial) {
		t.Error("serial and pooled MatMul disagree")
	}
}

// linearNaive is the k-ascending reference for the dense kernel: dot
// product per output element, bias added after the sum.
func linearNaive(x, w, bias *Tensor) *Tensor {
	m, k := x.shape[0], x.shape[1]
	n := w.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += x.data[i*k+kk] * w.data[j*k+kk]
			}
			if bias != nil {
				s += bias.data[j]
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

// randVariance draws c batch-norm variances v²+0.5 for v uniform in
// [-1, 1).
func randVariance(src rand.Source, c int) *Tensor {
	v := Rand(src, 1, c)
	for i, x := range v.data {
		v.data[i] = x*x + 0.5
	}
	return v
}

// bitEqual reports exact float32 equality (by bits via ==; all test inputs
// are NaN-free).
func bitEqual(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}
