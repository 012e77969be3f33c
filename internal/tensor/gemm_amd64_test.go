//go:build !purego

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPortableKernelPath re-runs the packed-GEMM, conv, chain, RNN, ReLU /
// maximum, max-pool and exp / tanh suites at every kernel tier below the detected one —
// the AVX2 kernels without the AVX-512 tile, then the portable Go kernels
// (the reference, and the only path off amd64) — so each tier passes the
// identical tests on this machine too. Each suite is a subtest with one
// child per tier.
func TestPortableKernelPath(t *testing.T) {
	lower := hostTiers()[1:]
	if len(lower) == 0 {
		t.Skip("no AVX2: the portable kernels are already the active path")
	}
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
		{"Conv2DBitExact", TestConv2DBitExact},
		{"Conv2DMatchesNaive", TestConv2DMatchesNaive},
		{"ChainMatchesOpByOp", TestChainMatchesOpByOp},
		{"ChainSerialMatchesParallel", TestChainSerialMatchesParallel},
		{"LinearChainBitExact", TestLinearChainBitExact},
		{"RNNSeqBitExact", TestRNNSeqBitExact},
		{"RNNRowsMatchScalarReference", TestRNNRowsMatchScalarReference},
		{"TranscendentalLoopsMatchMath", TestTranscendentalLoopsMatchMath},
		{"SoftmaxRowsMatchReference", TestSoftmaxRowsMatchReference},
		{"VexpMatchesMath", TestVexpMatchesMath},
		{"VexpCanaries", TestVexpCanaries},
		{"MaxLoopsMatchScan", TestMaxLoopsMatchScan},
		{"BatchNormChainBitExact", TestBatchNormChainBitExact},
		{"MaxPoolMatchesOracle", TestMaxPoolMatchesOracle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range lower {
				t.Run(k.String(), func(t *testing.T) {
					defer setTier(k)()
					tc.fn(t)
				})
			}
		})
	}
}

// TestTierRule pins the tier predicate: AVX2 needs OSXSAVE, AVX, the OS
// saving XMM and YMM state, and the AVX2 bit; the AVX-512 tier needs all of
// that (its leftover rows run the AVX2 kernels) plus AVX-512F and the OS
// saving the opmask and both ZMM state components.
func TestTierRule(t *testing.T) {
	const (
		osxsave, avx    = 1 << 27, 1 << 28
		avx2, avx512f   = 1 << 5, 1 << 16
		ecx1            = osxsave | avx
		ebx7            = avx2 | avx512f
		xmmYMM, zmmFull = 0x07, 0xE7
	)
	for _, tc := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		avx512           bool
		want             kernelTier
	}{
		{"everything", ecx1, ebx7, zmmFull, true, tierAVX512},
		{"XCR0 with PKRU and AMX state beside ZMM", ecx1, ebx7, 0x602e7, true, tierAVX512},
		{"AVX-512F bit set but ZMM state not saved", ecx1, ebx7, xmmYMM, false, tierAVX2},
		{"ZMM16-31 state not saved", ecx1, ebx7, 0x67, false, tierAVX2},
		{"ZMM0-15 upper halves not saved", ecx1, ebx7, 0xA7, false, tierAVX2},
		{"opmask state not saved", ecx1, ebx7, 0xC7, false, tierAVX2},
		{"no AVX-512F", ecx1, avx2, zmmFull, false, tierAVX2},
		{"AVX-512F without AVX2", ecx1, avx512f, zmmFull, true, tierPortable},
		{"YMM state not saved", ecx1, ebx7, 0xE3, false, tierPortable},
		{"no OSXSAVE", avx, ebx7, zmmFull, true, tierPortable},
		{"no AVX", osxsave, ebx7, zmmFull, true, tierPortable},
		{"nothing", 0, 0, 0, false, tierPortable},
	} {
		if got := avx512Usable(tc.ebx7, tc.xcr0); got != tc.avx512 {
			t.Errorf("%s: avx512Usable(%#x, %#x) = %v, want %v", tc.name, tc.ebx7, tc.xcr0, got, tc.avx512)
		}
		if got := tierOf(tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: tierOf(%#x, %#x, %#x) = %v, want %v", tc.name, tc.ecx1, tc.ebx7, tc.xcr0, got, tc.want)
		}
	}
	t.Logf("this machine: %v", detectTier())
}

// TestVexpRule pins the gate of the vector exp: it replays math.Exp's FMA
// branch, so it runs only where that branch is the one math.Exp takes (FMA)
// and the AVX2 kernels are in use; otherwise expBatch is math.Exp per
// element.
func TestVexpRule(t *testing.T) {
	const fma = 1 << 12
	for _, tc := range []struct {
		name string
		tier kernelTier
		ecx1 uint32
		want bool
	}{
		{"AVX2 tier with FMA", tierAVX2, fma, true},
		{"AVX-512 tier with FMA", tierAVX512, fma, true},
		{"AVX2 tier without FMA", tierAVX2, ^uint32(fma), false},
		{"portable tier with FMA", tierPortable, fma, false},
		{"nothing", tierPortable, 0, false},
	} {
		if got := vexpUsable(tc.tier, tc.ecx1); got != tc.want {
			t.Errorf("%s: vexpUsable(%v, %#x) = %v, want %v", tc.name, tc.tier, tc.ecx1, got, tc.want)
		}
	}
	t.Logf("this machine: vector exp %v", vexpUsable(tier, ecx1))
}

// TestKernelCanaries drives every assembly kernel on sub-slices cut at odd
// (unaligned) offsets out of NaN-filled backing arrays. The tile must match
// the Go kernel bit for bit — for the 8-row tile, kern4Go over its two
// 4-row halves — every element of C outside the tile — the guard bands and
// the gaps between its rows — must keep its canary, and a read outside A's
// rows or the panels would drag a NaN into the result. Each kernel is a
// subtest; the 8-row one skips below the AVX-512 tier.
func TestKernelCanaries(t *testing.T) {
	if tier < tierAVX2 {
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
	type tileShape struct{ rows, np int }
	var shapes []tileShape
	for np := 1; np <= tilePanels1; np++ {
		shapes = append(shapes, tileShape{1, np})
	}
	for np := 1; np <= tilePanels4; np++ {
		shapes = append(shapes, tileShape{mr, np})
	}
	shapes = append(shapes, tileShape{mr8, tilePanels4})
	for _, sh := range shapes {
		rows, np := sh.rows, sh.np
		t.Run(fmt.Sprintf("%dx%d", rows, np*nr), func(t *testing.T) {
			if rows == mr8 && tier < tierAVX512 {
				t.Skip("below the AVX-512 tier: the 8-row kernel is not in use")
			}
			for _, kc := range []int{1, 2, 7, packKC} {
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
				switch rows {
				case mr8:
					kern4Go(wc, ldc, a, lda, p, pstride, kc, np)
					kern4Go(wc[mr*ldc:], ldc, a[mr*lda:], lda, p, pstride, kc, np)
					kern8(c, ldc, a, lda, p, pstride, kc)
				case mr:
					kern4Go(wc, ldc, a, lda, p, pstride, kc, np)
					kern4(c, ldc, a, lda, p, pstride, kc, np)
				default:
					kern1Go(wc, a, p, pstride, kc, np)
					kern1(c, a, p, pstride, kc, np)
				}
				for i := range cWhole {
					if math.Float32bits(cWhole[i]) != math.Float32bits(want[i]) {
						t.Fatalf("kc=%d: C backing array differs from the Go kernel at %d (tile starts at 3): got %g want %g",
							kc, i, cWhole[i], want[i])
					}
				}
			}
		})
	}
}

// TestKernelWrappersBoundsCheck pins the Go-side checks that stand in for
// the bounds checks assembly cannot make: an operand one element short of
// the tile must panic before the kernel runs. The 8-row wrapper's cases
// skip below the AVX-512 tier.
func TestKernelWrappersBoundsCheck(t *testing.T) {
	if tier < tierAVX2 {
		t.Skip("no AVX2: assembly kernels not in use")
	}
	const kc = 5
	full := func(n int) []float32 { return make([]float32, n) }
	short := func(n int) []float32 { return make([]float32, n-1) }
	for _, tc := range []struct {
		name string
		need kernelTier
		call func()
	}{
		{"kern8 short C", tierAVX512, func() { kern8(short(7*16+16), 16, full(7*kc+kc), kc, full(2*kc*nr), kc*nr, kc) }},
		{"kern8 short A", tierAVX512, func() { kern8(full(7*16+16), 16, short(7*kc+kc), kc, full(2*kc*nr), kc*nr, kc) }},
		{"kern8 short panel", tierAVX512, func() { kern8(full(7*16+16), 16, full(7*kc+kc), kc, short(2*kc*nr), kc*nr, kc) }},
		{"kern4 short C", tierAVX2, func() { kern4(short(3*16+16), 16, full(3*kc+kc), kc, full(2*kc*nr), kc*nr, kc, 2) }},
		{"kern4 short A", tierAVX2, func() { kern4(full(3*16+16), 16, short(3*kc+kc), kc, full(2*kc*nr), kc*nr, kc, 2) }},
		{"kern4 short panel", tierAVX2, func() { kern4(full(3*16+16), 16, full(3*kc+kc), kc, short(2*kc*nr), kc*nr, kc, 2) }},
		{"kern1 short C", tierAVX2, func() { kern1(short(32), full(kc), full(4*kc*nr), kc*nr, kc, 4) }},
		{"kern1 short A", tierAVX2, func() { kern1(full(32), short(kc), full(4*kc*nr), kc*nr, kc, 4) }},
		{"kern1 short panel", tierAVX2, func() { kern1(full(32), full(kc), short(4*kc*nr), kc*nr, kc, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tier < tc.need {
				t.Skipf("below the %v tier", tc.need)
			}
			defer expectPanic(t, tc.name)
			tc.call()
		})
	}
}
