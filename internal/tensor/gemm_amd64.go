//go:build !purego

package tensor

// useAVX2 selects the assembly microkernels of gemm_amd64.s. It is decided
// once, at package init, from CPUID and XGETBV; a processor or OS without
// AVX2 state runs the portable Go kernels instead. Tests flip it to run the
// same suites over both paths.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// The OS must save both XMM (bit 1) and YMM (bit 2) state.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func kern4x16(c *float32, ldc int, a *float32, lda int, p *float32, pstride int, kc int)

//go:noescape
func kern4x8(c *float32, ldc int, a *float32, lda int, p *float32, kc int)

//go:noescape
func kern1x32(c *float32, a *float32, p *float32, pstride int, kc int)

//go:noescape
func kern1x8(c *float32, a *float32, p *float32, kc int)

//go:noescape
func maxps(dst, a, b *float32, n int)

//go:noescape
func maxps1(dst, a *float32, s float32, n int)

// maximumLoop computes dst[i] = a[i] > b[i] ? a[i] : b[i] — VMAXPS's own
// rule, so the vector kernel is the scalar loop bit for bit.
func maximumLoop(dst, a, b []float32) {
	if !useAVX2 {
		maximumGo(dst, a, b)
		return
	}
	if len(dst) == 0 {
		return
	}
	a, b = a[:len(dst)], b[:len(dst)] // the bounds checks the kernel cannot make
	maxps(&dst[0], &a[0], &b[0], len(dst))
}

// maximumScalar computes dst[i] = a[i] > s ? a[i] : s.
func maximumScalar(dst, a []float32, s float32) {
	if !useAVX2 {
		maximumScalarGo(dst, a, s)
		return
	}
	if len(dst) == 0 {
		return
	}
	a = a[:len(dst)]
	maxps1(&dst[0], &a[0], s, len(dst))
}

// reluLoop computes dst[i] = src[i] > 0 ? src[i] : 0: on amd64 the maximum
// against +0, elsewhere the branch-free reluGo.
func reluLoop(dst, src []float32) {
	if !useAVX2 {
		reluGo(dst, src)
		return
	}
	maximumScalar(dst, src, 0)
}

// kern4 updates the full 4×(np·nr) tile at c (row stride ldc) with
// a[4 rows, :kc] · the np ≤ 2 adjacent panels at p (panel stride pstride).
// The index expressions below are the bounds checks the assembly cannot
// make: the last element each operand's tile reaches must exist.
func kern4(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc, np int) {
	if !useAVX2 {
		kern4Go(c, ldc, a, lda, p, pstride, kc, np)
		return
	}
	if kc <= 0 {
		return
	}
	_ = c[3*ldc+np*nr-1]
	_ = a[3*lda+kc-1]
	_ = p[(np-1)*pstride+kc*nr-1]
	if np == 2 {
		kern4x16(&c[0], 4*ldc, &a[0], 4*lda, &p[0], 4*pstride, kc)
	} else {
		kern4x8(&c[0], 4*ldc, &a[0], 4*lda, &p[0], kc)
	}
}

// kern1 is the single-row counterpart of kern4 over np ≤ 4 adjacent panels:
// one 1×32 sweep when all four are present, 1×8 sweeps otherwise.
func kern1(c, a, p []float32, pstride, kc, np int) {
	if !useAVX2 {
		kern1Go(c, a, p, pstride, kc, np)
		return
	}
	if kc <= 0 {
		return
	}
	_ = c[np*nr-1]
	_ = a[kc-1]
	_ = p[(np-1)*pstride+kc*nr-1]
	if np == 4 {
		kern1x32(&c[0], &a[0], &p[0], 4*pstride, kc)
		return
	}
	for q := 0; q < np; q++ {
		kern1x8(&c[q*nr], &a[0], &p[q*pstride], kc)
	}
}
