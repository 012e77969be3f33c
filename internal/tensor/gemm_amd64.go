//go:build !purego

package tensor

// tier selects the microkernels of gemm_amd64.s. It is decided once, at
// package init, from CPUID and XGETBV: a processor or OS without AVX2 state
// runs the portable Go kernels, one without usable AVX-512 the AVX2 ones.
// Tests lower it to run the same suites over every tier below.
var tier = detectTier()

func detectTier() kernelTier {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return tierPortable
	}
	const osxsave = 1 << 27
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 {
		return tierPortable // XGETBV would fault
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	return tierOf(ecx1, ebx7, xcr0)
}

// tierOf is the tier rule over CPUID.1:ECX, CPUID.7:EBX and XCR0.
func tierOf(ecx1, ebx7, xcr0 uint32) kernelTier {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	// The OS must save both XMM (bit 1) and YMM (bit 2) state.
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xcr0&6 != 6 || ebx7&avx2 == 0 {
		return tierPortable
	}
	if avx512Usable(ebx7, xcr0) {
		return tierAVX512
	}
	return tierAVX2
}

// avx512Usable reports AVX-512F (CPUID.7:EBX bit 16) with the OS saving
// every state it touches: XMM, YMM (XCR0 bits 1, 2), the opmask registers
// (5), the upper halves of ZMM0–15 (6) and ZMM16–31 (7).
func avx512Usable(ebx7, xcr0 uint32) bool {
	const avx512f, zmmState = 1 << 16, 0xE6
	return ebx7&avx512f != 0 && xcr0&zmmState == zmmState
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func kern8x16(c *float32, ldc int, a *float32, lda int, p *float32, pstride int, kc int)

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

//go:noescape
func expPD(dst, src *float64, n int) (done int)

// maximumLoop computes dst[i] = a[i] > b[i] ? a[i] : b[i] — VMAXPS's own
// rule, so the vector kernel is the scalar loop bit for bit.
func maximumLoop(dst, a, b []float32) {
	if tier < tierAVX2 {
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
	if tier < tierAVX2 {
		maximumScalarGo(dst, a, s)
		return
	}
	if len(dst) == 0 {
		return
	}
	a = a[:len(dst)]
	maxps1(&dst[0], &a[0], s, len(dst))
}

// ecx1 is CPUID.1:ECX, read once for the FMA bit the vector exp needs.
var _, _, ecx1, _ = cpuid(1, 0)

// vexpUsable reports whether expPD reproduces math.Exp on this machine:
// math.Exp takes its FMA branch when the processor has AVX and FMA with the
// OS saving YMM state, and expPD replays that branch, so it needs FMA
// (CPUID.1:ECX bit 12) as well as the AVX2 tier. Anywhere else math.Exp runs
// its plain-multiply branch, which the vector code does not replay.
func vexpUsable(t kernelTier, ecx1 uint32) bool {
	const fma = 1 << 12
	return t >= tierAVX2 && ecx1&fma != 0
}

// expBatch computes dst[i] = math.Exp(src[i]) bit for bit: whole groups of
// four through expPD when it is usable, and through math.Exp the groups
// holding a lane beyond ±700, Inf or NaN, and the last len(dst)%4
// elements. dst may be src.
func expBatch(dst, src []float64) {
	src = src[:len(dst)]
	i := 0
	if vexpUsable(tier, ecx1) {
		for i+4 <= len(dst) {
			i += expPD(&dst[i], &src[i], len(dst)-i)
			if i+4 <= len(dst) { // stopped at a group math.Exp must take
				expGo(dst[i:i+4], src[i:i+4])
				i += 4
			}
		}
	}
	expGo(dst[i:], src[i:])
}

// reluLoop computes dst[i] = src[i] > 0 ? src[i] : 0: on amd64 the maximum
// against +0, elsewhere the branch-free reluGo.
func reluLoop(dst, src []float32) {
	if tier < tierAVX2 {
		reluGo(dst, src)
		return
	}
	maximumScalar(dst, src, 0)
}

// kern8 updates the full 8×(2·nr) tile at c (row stride ldc) with
// a[8 rows, :kc] · the two adjacent panels at p (panel stride pstride):
// the AVX-512 tier's tile, which gemmBlock uses only at that tier.
func kern8(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc int) {
	if tier < tierAVX512 {
		kern8Go(c, ldc, a, lda, p, pstride, kc)
		return
	}
	if kc <= 0 {
		return
	}
	_ = c[7*ldc+tilePanels4*nr-1]
	_ = a[7*lda+kc-1]
	_ = p[pstride+kc*nr-1]
	kern8x16(&c[0], 4*ldc, &a[0], 4*lda, &p[0], 4*pstride, kc)
}

// kern4 updates the full 4×(np·nr) tile at c (row stride ldc) with
// a[4 rows, :kc] · the np ≤ 2 adjacent panels at p (panel stride pstride).
// The index expressions below are the bounds checks the assembly cannot
// make: the last element each operand's tile reaches must exist.
func kern4(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc, np int) {
	if tier < tierAVX2 {
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
	if tier < tierAVX2 {
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
