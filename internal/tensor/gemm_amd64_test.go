//go:build !purego

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestPortableKernelPath re-runs the packed-GEMM, conv, chain, RNN, ReLU /
// maximum and max-pool suites with the assembly switched off, so the Go
// fallback — the reference, and the only path off amd64 — passes the
// identical tests on this machine too.
func TestPortableKernelPath(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the portable kernels are already the active path")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"MatMulPackedBitExact", TestMatMulPackedBitExact},
		{"MatMulIntoArenaBitExact", TestMatMulIntoArenaBitExact},
		{"LinearPackedBitExact", TestLinearPackedBitExact},
		{"FusedEpiloguesBitExact", TestFusedEpiloguesBitExact},
		{"BatchMatMulPackedBitExact", TestBatchMatMulPackedBitExact},
		{"SetMaxWorkersSerial", TestSetMaxWorkersSerial},
		{"Conv2DPackedMatchesBlocked", TestConv2DPackedMatchesBlocked},
		{"Conv2DBitExact", TestConv2DBitExact},
		{"Conv2DMatchesNaive", TestConv2DMatchesNaive},
		{"ChainMatchesOpByOp", TestChainMatchesOpByOp},
		{"ChainSerialMatchesParallel", TestChainSerialMatchesParallel},
		{"LinearChainBitExact", TestLinearChainBitExact},
		{"RNNSeqBitExact", TestRNNSeqBitExact},
		{"MaxLoopsMatchScan", TestMaxLoopsMatchScan},
		{"BatchNormChainBitExact", TestBatchNormChainBitExact},
		{"MaxPoolMatchesOracle", TestMaxPoolMatchesOracle},
	} {
		t.Run(tc.name, tc.fn)
	}
}

// TestKernelCanaries drives every assembly kernel on sub-slices cut at odd
// (unaligned) offsets out of NaN-filled backing arrays. The tile must match
// the Go kernel bit for bit, every element of C outside the tile — the
// guard bands and the gaps between its rows — must keep its canary, and a
// read outside A's rows or the panels would drag a NaN into the result.
func TestKernelCanaries(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: assembly kernels not in use")
	}
	rng := rand.New(rand.NewSource(17))
	nan := float32(math.NaN())
	// carve returns a length-n slice at offset off of a NaN-filled array
	// with a guard band after it as well, and the array itself.
	carve := func(off, n int) (sub, whole []float32) {
		whole = make([]float32, off+n+37)
		for i := range whole {
			whole[i] = nan
		}
		return whole[off : off+n : off+n], whole
	}
	fill := func(s []float32) {
		for i := range s {
			s[i] = rng.Float32()*2 - 1
		}
	}
	for _, kc := range []int{1, 2, 7, packKC} {
		for rows := 1; rows <= mr; rows += mr - 1 { // 1 and 4
			maxNP := tilePanels1
			if rows == mr {
				maxNP = tilePanels4
			}
			for np := 1; np <= maxNP; np++ {
				ldc, lda := np*nr+5, kc+3 // rows separated by gaps the kernel must not touch
				pstride := kc*nr + 24
				c, cWhole := carve(3, (rows-1)*ldc+np*nr)
				a, _ := carve(1, (rows-1)*lda+kc)
				p, _ := carve(5, (np-1)*pstride+kc*nr)
				for r := 0; r < rows; r++ {
					fill(c[r*ldc : r*ldc+np*nr])
					fill(a[r*lda : r*lda+kc])
				}
				for q := 0; q < np; q++ {
					fill(p[q*pstride : q*pstride+kc*nr])
				}
				want := append([]float32(nil), cWhole...)
				wc := want[3 : 3+len(c)]
				if rows == mr {
					kern4Go(wc, ldc, a, lda, p, pstride, kc, np)
					kern4(c, ldc, a, lda, p, pstride, kc, np)
				} else {
					kern1Go(wc, a, p, pstride, kc, np)
					kern1(c, a, p, pstride, kc, np)
				}
				for i := range cWhole {
					if math.Float32bits(cWhole[i]) != math.Float32bits(want[i]) {
						t.Fatalf("kernel %d×%d kc=%d: C backing array differs from the Go kernel at %d (tile starts at 3): got %g want %g",
							rows, np*nr, kc, i, cWhole[i], want[i])
					}
				}
			}
		}
	}
}

// TestKernelWrappersBoundsCheck pins the Go-side checks that stand in for
// the bounds checks assembly cannot make: an operand one element short of
// the tile must panic before the kernel runs.
func TestKernelWrappersBoundsCheck(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: assembly kernels not in use")
	}
	const kc = 5
	full := func(n int) []float32 { return make([]float32, n) }
	short := func(n int) []float32 { return make([]float32, n-1) }
	for name, call := range map[string]func(){
		"kern4 short C":     func() { kern4(short(3*16+16), 16, full(3*kc+kc), kc, full(2*kc*nr), kc*nr, kc, 2) },
		"kern4 short A":     func() { kern4(full(3*16+16), 16, short(3*kc+kc), kc, full(2*kc*nr), kc*nr, kc, 2) },
		"kern4 short panel": func() { kern4(full(3*16+16), 16, full(3*kc+kc), kc, short(2*kc*nr), kc*nr, kc, 2) },
		"kern1 short C":     func() { kern1(short(32), full(kc), full(4*kc*nr), kc*nr, kc, 4) },
		"kern1 short A":     func() { kern1(full(32), short(kc), full(4*kc*nr), kc*nr, kc, 4) },
		"kern1 short panel": func() { kern1(full(32), full(kc), short(4*kc*nr), kc*nr, kc, 4) },
	} {
		func() {
			defer expectPanic(t, name)
			call()
		}()
	}
}
