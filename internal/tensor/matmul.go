package tensor

import "fmt"

// MatMulInto computes a(M×K) · b(K×N) through the packed kernel. When out
// is nil a destination is taken from ar (or the plain allocator if ar is
// nil); otherwise out must already have shape M×N and is overwritten.
// Accumulation per output element is strictly k-ascending into a single
// accumulator, so results are bit-identical to MatMulNaive.
func MatMulInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.shape, b.shape))
	}
	if out == nil {
		out = ar.New(m, n)
	} else {
		if len(out.shape) != 2 || out.shape[0] != m || out.shape[1] != n {
			panic(fmt.Sprintf("tensor: MatMulInto destination %v, want [%d %d]", out.shape, m, n))
		}
		clear(out.data)
	}
	if m == 0 || n == 0 {
		return out
	}
	bp, scratch := packedB(b, k, n, false, ar)
	gemmPacked(out.data, a.data, bp, m, n, k)
	ar.dropScratch(scratch)
	return out
}

// LinearInto computes x·wᵀ + bias into out (allocated from ar when nil)
// for x(M×K), w(N×K), bias(N) — the dense-layer convention used throughout
// the model zoo. bias may be nil.
// The weight is packed as a transposed B operand; a pinned weight is packed
// once and keeps its panels. The bias is added in a single pass over each
// output row. For a fused epilogue program after the bias, see
// LinearChainInto.
func LinearInto(out *Tensor, x, w, bias *Tensor, ar *Arena) *Tensor {
	out = linearGEMM(out, x, w, bias, ar)
	if bias != nil {
		addBias(out.data, out.shape[0], out.shape[1], bias.data)
	}
	return out
}

// linearGEMM runs the packed x·wᵀ product shared by LinearInto and
// LinearChainInto, leaving the bias/epilogue pass to the caller.
func linearGEMM(out *Tensor, x, w, bias *Tensor, ar *Arena) *Tensor {
	if len(x.shape) != 2 || len(w.shape) != 2 {
		panic(fmt.Sprintf("tensor: Linear requires 2-D operands, got %v, %v", x.shape, w.shape))
	}
	m, k := x.shape[0], x.shape[1]
	n, k2 := w.shape[0], w.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: Linear inner dimensions differ: x %v, w %v", x.shape, w.shape))
	}
	if bias != nil && bias.Numel() != n {
		panic(fmt.Sprintf("tensor: Linear bias has %d elements, want %d", bias.Numel(), n))
	}
	if out == nil {
		out = ar.New(m, n)
	} else {
		if len(out.shape) != 2 || out.shape[0] != m || out.shape[1] != n {
			panic(fmt.Sprintf("tensor: LinearInto destination %v, want [%d %d]", out.shape, m, n))
		}
		clear(out.data)
	}
	if m == 0 || n == 0 {
		return out
	}
	bp, scratch := packedB(w, k, n, true, ar)
	gemmPacked(out.data, x.data, bp, m, n, k)
	ar.dropScratch(scratch)
	return out
}

// BatchMatMulInto multiplies a(B×M×K) · b(B×K×N) batchwise through the
// packed kernel, reusing one pack buffer across batches.
func BatchMatMulInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	if len(a.shape) != 3 || len(b.shape) != 3 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: BatchMatMul requires matching 3-D operands, got %v × %v", a.shape, b.shape))
	}
	bs, m, k := a.shape[0], a.shape[1], a.shape[2]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: BatchMatMul inner dimensions differ: %v × %v", a.shape, b.shape))
	}
	n := b.shape[2]
	if out == nil {
		out = ar.New(bs, m, n)
	} else {
		if len(out.shape) != 3 || out.shape[0] != bs || out.shape[1] != m || out.shape[2] != n {
			panic(fmt.Sprintf("tensor: BatchMatMulInto destination %v, want [%d %d %d]", out.shape, bs, m, n))
		}
		clear(out.data)
	}
	if bs == 0 || m == 0 || n == 0 {
		return out
	}
	buf, scratch := ar.grabScratch(packedSize(k, n))
	for i := 0; i < bs; i++ {
		packBRowMajor(buf, b.data[i*k*n:(i+1)*k*n], k, n, n, 0, packedPanels(n))
		gemmPacked(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], buf, m, n, k)
	}
	ar.dropScratch(scratch)
	return out
}

// packedPanels returns the number of nr-column panels that cover n columns.
func packedPanels(n int) int { return (n + nr - 1) / nr }

// packedSize returns the element count of the packed layout of a K×N
// operand: full-K panels of nr columns, edge panels zero-padded.
func packedSize(k, n int) int { return packedPanels(n) * k * nr }

// packedB returns b's packed panels. trans=false packs a K×N row-major
// operand; trans=true packs an N×K operand as its transpose (the dense
// weight path). A pinned tensor keeps its panels (packcache.go); anything
// else is packed into arena scratch, returned for release.
func packedB(b *Tensor, k, n int, trans bool, ar *Arena) ([]float32, *Tensor) {
	if b.pin != nil && len(b.data) > 0 {
		return b.pin.packed(b.data, k, n, trans), nil
	}
	buf, scratch := ar.grabScratch(packedSize(k, n))
	packPanels(buf, b.data, k, n, trans, 0, packedPanels(n))
	return buf, scratch
}

// packPanels packs column panels [lo, hi) of b in the layout packedB names.
func packPanels(bp, b []float32, k, n int, trans bool, lo, hi int) {
	if trans {
		packBTransposed(bp, b, k, n, k, lo, hi)
	} else {
		packBRowMajor(bp, b, k, n, n, lo, hi)
	}
}

// packBRowMajor packs column panels [lo, hi) of a K×N row-major operand
// whose rows start ld elements apart into tile-major layout:
// bp[jt*k*nr + kk*nr + jj] = b[kk*ld + jt*nr + jj], zero-padding columns
// past N so the microkernel never needs an edge case in K. Every slot of a
// packed panel is written, so non-zeroed scratch is safe.
func packBRowMajor(bp, b []float32, k, n, ld, lo, hi int) {
	for jt := lo; jt < hi; jt++ {
		j0 := jt * nr
		jw := min(nr, n-j0)
		dst := bp[jt*k*nr:]
		for kk := 0; kk < k; kk++ {
			src := b[kk*ld+j0 : kk*ld+j0+jw]
			d := dst[kk*nr : kk*nr+nr]
			copy(d, src)
			for jj := jw; jj < nr; jj++ {
				d[jj] = 0
			}
		}
	}
}

// packBTransposedGo packs column panels [lo, hi) of B = wᵀ for an N×K
// row-major operand w whose rows start ld elements apart:
// bp[jt*k*nr + kk*nr + jj] = w[(jt*nr+jj)*ld + kk]. It is the portable
// path and the reference packBTransposed's vector path is held to.
func packBTransposedGo(bp, w []float32, k, n, ld, lo, hi int) {
	for jt := lo; jt < hi; jt++ {
		j0 := jt * nr
		jw := min(nr, n-j0)
		dst := bp[jt*k*nr:]
		for jj := 0; jj < jw; jj++ {
			wrow := w[(j0+jj)*ld : (j0+jj)*ld+k]
			for kk := 0; kk < k; kk++ {
				dst[kk*nr+jj] = wrow[kk]
			}
		}
		for jj := jw; jj < nr; jj++ {
			for kk := 0; kk < k; kk++ {
				dst[kk*nr+jj] = 0
			}
		}
	}
}

// addBias adds the bias row-broadcast to each row of c (bias-after-sum
// order matches the naive reference).
func addBias(c []float32, m, n int, bias []float32) {
	if parts, grain := fanOut(m, float64(m*n)*nsStream); parts > 1 {
		ParallelForChunked(m, parts, grain, func(lo, hi int) {
			biasRows(c, lo, hi, n, bias)
		})
		return
	}
	biasRows(c, 0, m, n, bias)
}

func biasRows(c []float32, lo, hi, n int, bias []float32) {
	for i := lo; i < hi; i++ {
		row := c[i*n : i*n+n]
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// MatMulNaive is a reference triple-loop implementation used by tests to
// validate the packed kernel bit-for-bit.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.data[i*k+kk] * b.data[kk*n+j]
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

// Transpose2DInto transposes a 2-D tensor into out (allocated from ar when
// nil).
func Transpose2DInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose2D requires a 2-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	if out == nil {
		out = ar.New(n, m)
	} else if len(out.shape) != 2 || out.shape[0] != n || out.shape[1] != m {
		panic(fmt.Sprintf("tensor: Transpose2DInto destination %v, want [%d %d]", out.shape, n, m))
	}
	if parts, grain := fanOut(m, float64(m*n)*nsStream); parts > 1 {
		ParallelForChunked(m, parts, grain, func(lo, hi int) {
			transposeRows(out.data, t.data, lo, hi, m, n)
		})
		return out
	}
	transposeRows(out.data, t.data, 0, m, m, n)
	return out
}

func transposeRows(dst, src []float32, lo, hi, m, n int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < n; j++ {
			dst[j*m+i] = src[i*n+j]
		}
	}
}
