package tensor

// Packed-GEMM geometry. B is repacked into tile-major panels of nr columns
// so the innermost loads are contiguous regardless of N. The microkernels
// update register tiles of C spanning adjacent panels: mr×(2·nr) for the
// bulk of the rows (mr8×(2·nr) at the AVX-512 tier; one panel wide on a
// lone trailing panel) and 1×(4·nr) for leftover rows — the M=1 GEMV shape
// of the RNN and batch-1 dense steps. packKC bounds the K-extent touched
// per panel sweep of a block wider than one two-panel group (keeps the
// active A rows and B panels cache-resident) and packMC is the row
// granularity handed to the worker pool, aligned to whole microkernel tiles.
const (
	mr     = 4
	mr8    = 2 * mr
	nr     = 8
	packKC = 256
	packMC = 64

	// tilePanels4 and tilePanels1 are the panel counts of the two register
	// tiles; splitting columns on a multiple of both keeps every block on
	// the same tile grid.
	tilePanels4 = 2
	tilePanels1 = 4
)

// kernelTier names the microkernel set the package variable tier selects,
// once, at init: the portable Go kernels, the AVX2 assembly, or the AVX2
// assembly plus the 8-row AVX-512 tile. Each tier is the one below it plus
// its own kernels, so tests lower the variable to run the same suites over
// every tier the machine has.
type kernelTier uint8

const (
	tierPortable kernelTier = iota
	tierAVX2
	tierAVX512
)

// gemmPacked computes C += A·B for row-major A (M×K), packed B panels, and
// row-major C (M×N, pre-zeroed by the caller). Whether it splits is
// fanOut's call, priced per MAC; the work is then cut into a grid of
// packMC-row × column-panel blocks claimed dynamically by the w parts. Rows
// alone are split when they yield enough blocks to balance the
// workers; a short, wide product (conv1 and ResNet layer1 have M = 64) is
// split over column panels as well. Every C element is produced by one
// k-ascending accumulator whatever the grid, so the split never changes a
// bit.
func gemmPacked(c, a, bp []float32, m, n, k int) {
	np := (n + nr - 1) / nr
	rowBlocks := (m + packMC - 1) / packMC
	w, _ := fanOut(rowBlocks*np, float64(m*n*k)*nsMAC)
	if w == 1 {
		gemmBlock(c, n, a, k, bp, 0, m, np, n, k)
		return
	}
	bw := np // panels per column block
	if rowBlocks < 2*w {
		colBlocks := (4*w + rowBlocks - 1) / rowBlocks
		bw = (np + colBlocks - 1) / colBlocks
		bw = (bw + tilePanels1 - 1) / tilePanels1 * tilePanels1
	}
	colBlocks := (np + bw - 1) / bw
	ParallelForChunked(rowBlocks*colBlocks, w, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			i0, jt0 := t/colBlocks*packMC, t%colBlocks*bw
			pw := min(bw, np-jt0)
			gemmBlock(c[jt0*nr:], n, a, k, bp[jt0*k*nr:], i0, min(i0+packMC, m), pw, min(pw*nr, n-jt0*nr), k)
		}
	})
}

// gemmBlock computes C[i0:i1, 0:cols) += A[i0:i1, :] · B, where c starts at
// the block's first column (row stride ldc), bp holds the block's np packed
// panels of full K extent and cols ≤ np·nr is its live width. A block of
// several two-panel column groups sweeps K in packKC slabs, so each slab of
// A stays cache-hot while every group's rows stream past it; a block of one
// group has no second group to share a slab with, and sweeps all of K in
// one kernel call per tile, streaming each A row once. Whole row tiles take
// the panels two by two (a lone trailing panel alone): 8 rows at a time at
// the AVX-512 tier, then 4 (below it i8 == i0). Leftover rows take them
// four by four.
func gemmBlock(c []float32, ldc int, a []float32, lda int, bp []float32, i0, i1, np, cols, k int) {
	pstride := k * nr
	i4 := i0 + (i1-i0)&^(mr-1)
	i8 := i0
	if tier >= tierAVX512 {
		i8 += (i1 - i0) &^ (mr8 - 1)
	}
	slab := packKC
	if np <= tilePanels4 {
		slab = k
	}
	for k0 := 0; k0 < k; k0 += slab {
		kc := min(slab, k-k0)
		for jt := 0; jt < np && i4 > i0; jt += tilePanels4 {
			g := min(tilePanels4, np-jt)
			w := min(g*nr, cols-jt*nr)
			panel := bp[jt*pstride+k0*nr:]
			i := i0
			for ; i < i8; i += mr8 {
				tile(mr8, c[i*ldc+jt*nr:], ldc, a[i*lda+k0:], lda, panel, pstride, kc, g, w)
			}
			for ; i < i4; i += mr {
				tile(mr, c[i*ldc+jt*nr:], ldc, a[i*lda+k0:], lda, panel, pstride, kc, g, w)
			}
		}
		for i := i4; i < i1; i++ {
			for jt := 0; jt < np; jt += tilePanels1 {
				g := min(tilePanels1, np-jt)
				w := min(g*nr, cols-jt*nr)
				tile1(c[i*ldc+jt*nr:], a[i*lda+k0:], bp[jt*pstride+k0*nr:], pstride, kc, g, w)
			}
		}
	}
}

// tile advances the rows×(np·nr) tile (rows mr or mr8, np ≤ 2) of w live
// columns at c. A full tile runs in place; a partial one (the zero-padded
// last panel) is copied to a full-width stack tile, advanced there by the
// same kernel, and its live columns copied back, so no kernel ever touches
// memory past the matrix edge.
func tile(rows int, c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc, np, w int) {
	if tw := np * nr; w < tw {
		var t [mr8 * tilePanels4 * nr]float32
		for r := 0; r < rows; r++ {
			copy(t[r*tw:r*tw+w], c[r*ldc:r*ldc+w])
		}
		tile(rows, t[:], tw, a, lda, p, pstride, kc, np, tw)
		for r := 0; r < rows; r++ {
			copy(c[r*ldc:r*ldc+w], t[r*tw:r*tw+w])
		}
	} else if rows == mr8 {
		kern8(c, ldc, a, lda, p, pstride, kc, np)
	} else {
		kern4(c, ldc, a, lda, p, pstride, kc, np)
	}
}

// tile1 is the single-row counterpart of tile.
func tile1(c, a, p []float32, pstride, kc, np, w int) {
	if w == np*nr {
		kern1(c, a, p, pstride, kc, np)
		return
	}
	var t [tilePanels1 * nr]float32
	copy(t[:w], c[:w])
	kern1(t[:], a, p, pstride, kc, np)
	copy(c[:w], t[:w])
}

// kern4Go and kern1Go are the portable microkernels: the reference the
// assembly is tested against, and the only path off amd64, under the purego
// tag, or on a processor without AVX2.
func kern4Go(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc, np int) {
	for q := 0; q < np; q++ {
		micro4x8(c[q*nr:], ldc, a, lda, p[q*pstride:], kc)
	}
}

// kern8Go is the 8-row tile as its two 4-row halves: the reference of the
// AVX-512 tier's kernels.
func kern8Go(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc, np int) {
	kern4Go(c, ldc, a, lda, p, pstride, kc, np)
	kern4Go(c[mr*ldc:], ldc, a[mr*lda:], lda, p, pstride, kc, np)
}

func kern1Go(c, a, p []float32, pstride, kc, np int) {
	for q := 0; q < np; q++ {
		micro1x8(c[q*nr:], a, p[q*pstride:], kc)
	}
}

// micro4x8 updates the 4×8 tile at c with a[4 rows, :kc] · p[:kc]. The 32
// accumulators are loaded from C and stored back, and each advances in
// strictly ascending k, so the kernel is bit-exact with the naive triple
// loop.
func micro4x8(c []float32, ldc int, a []float32, lda int, p []float32, kc int) {
	a0 := a[:kc]
	a1 := a[lda : lda+kc]
	a2 := a[2*lda : 2*lda+kc]
	a3 := a[3*lda : 3*lda+kc]
	c0 := c[:nr]
	c1 := c[ldc : ldc+nr]
	c2 := c[2*ldc : 2*ldc+nr]
	c3 := c[3*ldc : 3*ldc+nr]
	c00, c01, c02, c03, c04, c05, c06, c07 := c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7]
	c10, c11, c12, c13, c14, c15, c16, c17 := c1[0], c1[1], c1[2], c1[3], c1[4], c1[5], c1[6], c1[7]
	c20, c21, c22, c23, c24, c25, c26, c27 := c2[0], c2[1], c2[2], c2[3], c2[4], c2[5], c2[6], c2[7]
	c30, c31, c32, c33, c34, c35, c36, c37 := c3[0], c3[1], c3[2], c3[3], c3[4], c3[5], c3[6], c3[7]
	for kk := 0; kk < kc; kk++ {
		b := p[kk*nr : kk*nr+nr]
		b0, b1, b2, b3, b4, b5, b6, b7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
		av := a0[kk]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		c04 += av * b4
		c05 += av * b5
		c06 += av * b6
		c07 += av * b7
		av = a1[kk]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		c14 += av * b4
		c15 += av * b5
		c16 += av * b6
		c17 += av * b7
		av = a2[kk]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		c24 += av * b4
		c25 += av * b5
		c26 += av * b6
		c27 += av * b7
		av = a3[kk]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
		c34 += av * b4
		c35 += av * b5
		c36 += av * b6
		c37 += av * b7
	}
	c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7] = c00, c01, c02, c03, c04, c05, c06, c07
	c1[0], c1[1], c1[2], c1[3], c1[4], c1[5], c1[6], c1[7] = c10, c11, c12, c13, c14, c15, c16, c17
	c2[0], c2[1], c2[2], c2[3], c2[4], c2[5], c2[6], c2[7] = c20, c21, c22, c23, c24, c25, c26, c27
	c3[0], c3[1], c3[2], c3[3], c3[4], c3[5], c3[6], c3[7] = c30, c31, c32, c33, c34, c35, c36, c37
}

// micro1x8 is the single-row variant of micro4x8.
func micro1x8(c, a, p []float32, kc int) {
	a0 := a[:kc]
	c0 := c[:nr]
	c00, c01, c02, c03, c04, c05, c06, c07 := c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7]
	for kk := 0; kk < kc; kk++ {
		b := p[kk*nr : kk*nr+nr]
		av := a0[kk]
		c00 += av * b[0]
		c01 += av * b[1]
		c02 += av * b[2]
		c03 += av * b[3]
		c04 += av * b[4]
		c05 += av * b[5]
		c06 += av * b[6]
		c07 += av * b[7]
	}
	c0[0], c0[1], c0[2], c0[3], c0[4], c0[5], c0[6], c0[7] = c00, c01, c02, c03, c04, c05, c06, c07
}
