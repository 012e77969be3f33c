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
func kern8x8(c *float32, ldc int, a *float32, lda int, p *float32, kc int)

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

//go:noescape
func tanhPD(dst, src, e *float64, n int)

//go:noescape
func geluArgPD(a, e *float64, src *float32, n int)

//go:noescape
func geluOutPD(dst, src *float32, t *float64, n int)

//go:noescape
func packTransAVX(dst, src *float32, ld, blocks int)

//go:noescape
func fillPS(dst *float32, feed, tap *uint64, chunks int, bound float32) (done int)

//go:noescape
func packRowsAVX(d *float32, dOuter, dInner int, src *float32, sOuter, sInner, outer, inner, lead int, lmask, smask *int32, mode int)

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

// ebx7 is CPUID.7:EBX, read once for the AVX-512 subsets fillPS needs.
var _, ebx7, _, _ = cpuid(7, 0)

// fillUsable reports whether fillPS runs on this machine: it needs the
// AVX-512 tier (F, with the OS saving ZMM state) and AVX-512 DQ
// (CPUID.7:EBX bit 17) for VCVTQQ2PD, as AVX2 has no int64 → float64
// conversion. Its float32 stage is VEX-encoded, so it needs no AVX-512 VL.
func fillUsable(t kernelTier, ebx7 uint32) bool {
	const dq = 1 << 17
	return t >= tierAVX512 && ebx7&dq != 0
}

// fillChunks runs RNG.fill's terms in whole chunks of eight through fillPS
// when it is usable, and returns how many terms it ran, leaving the last
// len(feed)%8 to the scalar loop. stopped reports that it stopped early,
// before a chunk holding a draw that rounds to 1: the scalar loop runs that
// chunk. dst, feed and tap are as in fill: dst has room for every term, tap
// is the run 273 terms behind feed.
func fillChunks(dst []float32, feed, tap []uint64, bound float32) (done int, stopped bool) {
	chunks := len(feed) / 8
	if chunks == 0 {
		return 0, false
	}
	_ = dst[8*chunks-1] // the bounds checks the kernel cannot make
	_ = tap[8*chunks-1]
	if !fillUsable(tier, ebx7) {
		return 0, false
	}
	done = fillPS(&dst[0], &feed[0], &tap[0], chunks, bound)
	return done, done < 8*chunks
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

// tanhExp computes dst[i] = math.Tanh(src[i]) bit for bit given
// e[i] = math.Exp(2|src[i]|): whole groups of four through tanhPD when the
// vector exp is usable, the last len(dst)%4 elements through tanhExpGo.
// dst may be src.
func tanhExp(dst, src, e []float64) {
	src, e = src[:len(dst)], e[:len(dst)] // the bounds checks the kernel cannot make
	i := 0
	if vexpUsable(tier, ecx1) && len(dst) >= 4 {
		i = len(dst) &^ 3
		tanhPD(&dst[0], &src[0], &e[0], i)
	}
	tanhExpGo(dst[i:], src[i:], e[i:])
}

// geluArg computes GELU's tanh argument a[i] = c·(x + 0.044715·x³) with
// x = float64(src[i]), and e[i] = 2|a[i]|: whole groups of four through
// geluArgPD when the vector exp is usable, the rest through geluArgGo.
func geluArg(a, e []float64, src []float32) {
	e, src = e[:len(a)], src[:len(a)]
	i := 0
	if vexpUsable(tier, ecx1) && len(a) >= 4 {
		i = len(a) &^ 3
		geluArgPD(&a[0], &e[0], &src[0], i)
	}
	geluArgGo(a[i:], e[i:], src[i:])
}

// geluOut computes dst[i] = float32(0.5·x·(1 + t[i])) with x = float64(src[i]):
// whole groups of four through geluOutPD when the vector exp is usable, the
// rest through geluOutGo. dst may be src.
func geluOut(dst, src []float32, t []float64) {
	src, t = src[:len(dst)], t[:len(dst)]
	i := 0
	if vexpUsable(tier, ecx1) && len(dst) >= 4 {
		i = len(dst) &^ 3
		geluOutPD(&dst[0], &src[0], &t[0], i)
	}
	geluOutGo(dst[i:], src[i:], t[i:])
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

// kern8 updates the full 8×(np·nr) tile at c (row stride ldc) with
// a[8 rows, :kc] · the np ≤ 2 adjacent panels at p (panel stride pstride):
// the AVX-512 tier's tiles, which gemmBlock uses only at that tier — the
// ZMM kernel over a two-panel group, the YMM one over a lone panel.
func kern8(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc, np int) {
	if tier < tierAVX512 {
		kern8Go(c, ldc, a, lda, p, pstride, kc, np)
		return
	}
	if kc <= 0 {
		return
	}
	_ = c[7*ldc+np*nr-1]
	_ = a[7*lda+kc-1]
	_ = p[(np-1)*pstride+kc*nr-1]
	if np == 2 {
		kern8x16(&c[0], 4*ldc, &a[0], 4*lda, &p[0], 4*pstride, kc)
	} else {
		kern8x8(&c[0], 4*ldc, &a[0], 4*lda, &p[0], kc)
	}
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

// packBTransposed is packBTransposedGo with each full panel transposed by
// packTransAVX, eight elements of K at a time, from the AVX2 tier up; the
// ragged last panel and the last K%8 elements of each row keep the Go
// loop. Packing only moves elements, so the paths agree bit for bit.
func packBTransposed(bp, w []float32, k, n, ld, lo, hi int) {
	full := min(hi, n/nr) // panels [lo, full) have nr live columns
	blocks := k / 8
	if tier < tierAVX2 || blocks == 0 || full <= lo {
		packBTransposedGo(bp, w, k, n, ld, lo, hi)
		return
	}
	kb := 8 * blocks
	for jt := lo; jt < full; jt++ {
		j0 := jt * nr
		dst := bp[jt*k*nr : (jt+1)*k*nr]
		_ = w[(j0+nr-1)*ld+k-1] // the last element the panel reads
		packTransAVX(&dst[0], &w[j0*ld], 4*ld, blocks)
		for jj := 0; jj < nr; jj++ {
			for kk, v := range w[(j0+jj)*ld+kb : (j0+jj)*ld+k] {
				dst[(kb+kk)*nr+jj] = v
			}
		}
	}
	packBTransposedGo(bp, w, k, n, ld, full, hi)
}

// packRowsAVX's modes, one loop each (pack_amd64.s branches on these
// values): a full stride-1 run (plain moves), a rectangle of zeros, a masked
// stride-1 run, a masked stride-2 run.
const (
	packCopy = iota
	packZero
	packStride1
	packStride2
)

// packMasks[stride-1][lo][hi] is the VMASKMOVPS load mask of a run of
// stride 1 or 2 whose lanes [lo, hi) are active, over the 16 source floats
// from its lane 0: element e is read iff e%stride == 0 and lo ≤ e/stride <
// hi (so a stride-1 mask is clear past element 7). packMasks[0][0][run] is
// also the store mask of a run-lane slot.
var packMasks = func() (m [2][nr + 1][nr + 1][2 * nr]int32) {
	for st := 1; st <= 2; st++ {
		for lo := 0; lo <= nr; lo++ {
			for hi := lo; hi <= nr; hi++ {
				for e := 0; e < 2*nr; e++ {
					if e%st == 0 && lo <= e/st && e/st < hi {
						m[st-1][lo][hi][e] = -1
					}
				}
			}
		}
	}
	return m
}()

// packRows is packRowsGo through packRowsAVX at strides 1 and 2 from the
// AVX2 tier up. Go forms no pointer outside src: the index expressions below
// check the first and the last active element of the rectangle (the slots'
// strides are positive) and the last lane of d, and the assembly alone steps
// back from the first active element to lane 0 of a left-fringe run, whose
// lanes before lo the masked loads never touch.
func packRows(d []float32, dOuter, dInner int, src []float32, base, sOuter, sInner, outer, inner, stride, lo, hi, run int) {
	if tier < tierAVX2 || stride > 2 {
		packRowsGo(d, dOuter, dInner, src, base, sOuter, sInner, outer, inner, stride, lo, hi, run)
		return
	}
	if outer <= 0 || inner <= 0 || run <= 0 {
		return
	}
	_ = d[(outer-1)*dOuter+(inner-1)*dInner+run-1]
	smask := &packMasks[0][0][run][0]
	if lo == hi {
		packRowsAVX(&d[0], 4*dOuter, 4*dInner, nil, 0, 0, outer, inner, 0, smask, smask, packZero)
		return
	}
	first := base + lo*stride
	_ = src[base+(outer-1)*sOuter+(inner-1)*sInner+(hi-1)*stride]
	mode := packStride2
	if stride == 1 {
		mode = packStride1
		if hi-lo == nr {
			mode = packCopy
		}
	}
	packRowsAVX(&d[0], 4*dOuter, 4*dInner, &src[first], 4*sOuter, 4*sInner, outer, inner, 4*lo*stride,
		&packMasks[stride-1][lo][hi][0], smask, mode)
}
