package tensor

import (
	"fmt"
	"math"
)

// Arena-aware kernel variants. Each XxxInto mirrors its allocating
// counterpart exactly (same loop structure, same accumulation order, so
// results are bit-identical) but writes into out, allocating the
// destination from ar only when out is nil. The allocating wrappers in
// elementwise.go / nn.go delegate here with a nil arena.

func checkInto(out *Tensor, shape []int, name string) {
	if !ShapeEq(out.shape, shape) {
		panic(fmt.Sprintf("tensor: %s destination %v, want %v", name, out.shape, shape))
	}
}

// applyInto maps f over t into out.
func applyInto(out *Tensor, t *Tensor, ar *Arena, f func(float32) float32) *Tensor {
	if out == nil {
		out = ar.NewNoZero(t.shape...)
	} else {
		checkInto(out, t.shape, "applyInto")
	}
	// Serial fast path before the closure literal: a closure passed to
	// ParallelFor is heap-allocated at the call site even when the serial
	// branch inside ParallelFor runs, and elementwise ops dominate the hot
	// loop of recurrent models.
	if len(t.data) < parallelThreshold || effectiveWorkers() <= 1 {
		for i, v := range t.data {
			out.data[i] = f(v)
		}
		return out
	}
	ParallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = f(t.data[i])
		}
	})
	return out
}

func binaryOpInto(out *Tensor, a, b *Tensor, ar *Arena, name string, f func(x, y float32) float32) *Tensor {
	if a.SameShape(b) {
		if out == nil {
			out = ar.NewNoZero(a.shape...)
		} else {
			checkInto(out, a.shape, name)
		}
		if len(a.data) < parallelThreshold || effectiveWorkers() <= 1 {
			for i, v := range a.data {
				out.data[i] = f(v, b.data[i])
			}
			return out
		}
		ParallelFor(len(a.data), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out.data[i] = f(a.data[i], b.data[i])
			}
		})
		return out
	}
	// Row-vector broadcast: b of shape [k] combined with a of shape [..., k].
	if len(b.shape) == 1 && a.Dim(-1) == b.shape[0] {
		k := b.shape[0]
		if out == nil {
			out = ar.NewNoZero(a.shape...)
		} else {
			checkInto(out, a.shape, name)
		}
		if len(a.data) < parallelThreshold || effectiveWorkers() <= 1 {
			for i, v := range a.data {
				out.data[i] = f(v, b.data[i%k])
			}
			return out
		}
		ParallelFor(len(a.data), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out.data[i] = f(a.data[i], b.data[i%k])
			}
		})
		return out
	}
	// Scalar broadcast.
	if b.Numel() == 1 {
		s := b.data[0]
		return applyInto(out, a, ar, func(x float32) float32 { return f(x, s) })
	}
	panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", name, a.shape, b.shape))
}

// AddInto computes a + b (broadcasting b) into out.
func AddInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Add", func(x, y float32) float32 { return x + y })
}

// SubInto computes a - b (broadcasting b) into out.
func SubInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Sub", func(x, y float32) float32 { return x - y })
}

// MulInto computes a * b (broadcasting b) into out.
func MulInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Mul", func(x, y float32) float32 { return x * y })
}

// DivInto computes a / b (broadcasting b) into out.
func DivInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Div", func(x, y float32) float32 { return x / y })
}

// MaximumInto computes max(a, b) (broadcasting b) into out.
func MaximumInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Maximum", func(x, y float32) float32 {
		if x > y {
			return x
		}
		return y
	})
}

// ScaleInto computes t * s into out.
func ScaleInto(out *Tensor, t *Tensor, s float32, ar *Arena) *Tensor {
	return applyInto(out, t, ar, func(x float32) float32 { return x * s })
}

// ReLUInto computes max(x, 0) into out.
func ReLUInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return applyInto(out, t, ar, func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// SigmoidInto computes 1/(1+exp(-x)) into out.
func SigmoidInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return applyInto(out, t, ar, func(x float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(x))))
	})
}

// TanhInto computes tanh(x) into out.
func TanhInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return applyInto(out, t, ar, func(x float32) float32 { return float32(math.Tanh(float64(x))) })
}

// ExpInto computes exp(x) into out.
func ExpInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return applyInto(out, t, ar, func(x float32) float32 { return float32(math.Exp(float64(x))) })
}

// SqrtInto computes sqrt(x) into out.
func SqrtInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return applyInto(out, t, ar, func(x float32) float32 { return float32(math.Sqrt(float64(x))) })
}

// GELUInto computes the tanh-approximated GELU into out.
func GELUInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	const c = 0.7978845608028654 // sqrt(2/pi)
	return applyInto(out, t, ar, func(x float32) float32 {
		xf := float64(x)
		return float32(0.5 * xf * (1 + math.Tanh(c*(xf+0.044715*xf*xf*xf))))
	})
}

// SoftmaxInto applies a numerically stable softmax along the last dimension
// into out.
func SoftmaxInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: Softmax of a scalar")
	}
	k := t.Dim(-1)
	rows := len(t.data) / k
	if out == nil {
		out = ar.NewNoZero(t.shape...)
	} else {
		checkInto(out, t.shape, "SoftmaxInto")
	}
	if !worthSplitting(rows, k) {
		softmaxRows(out.data, t.data, k, 0, rows)
		return out
	}
	ParallelForChunked(rows, planeGrain(rows), func(lo, hi int) {
		softmaxRows(out.data, t.data, k, lo, hi)
	})
	return out
}

func softmaxRows(dst, src []float32, k, lo, hi int) {
	for r := lo; r < hi; r++ {
		s := src[r*k : (r+1)*k]
		d := dst[r*k : (r+1)*k]
		m := s[0]
		for _, v := range s[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for i, v := range s {
			e := math.Exp(float64(v - m))
			d[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range d {
			d[i] *= inv
		}
	}
}

// LayerNormInto normalises the last dimension into out.
func LayerNormInto(out *Tensor, t, gamma, beta *Tensor, eps float32, ar *Arena) *Tensor {
	k := t.Dim(-1)
	if gamma.Numel() != k || beta.Numel() != k {
		panic(fmt.Sprintf("tensor: LayerNorm gamma/beta must have %d elements", k))
	}
	rows := len(t.data) / k
	if out == nil {
		out = ar.NewNoZero(t.shape...)
	} else {
		checkInto(out, t.shape, "LayerNormInto")
	}
	if !worthSplitting(rows, k) {
		layerNormRows(out.data, t.data, gamma.data, beta.data, k, eps, 0, rows)
		return out
	}
	ParallelForChunked(rows, planeGrain(rows), func(lo, hi int) {
		layerNormRows(out.data, t.data, gamma.data, beta.data, k, eps, lo, hi)
	})
	return out
}

func layerNormRows(dst, src, gamma, beta []float32, k int, eps float32, lo, hi int) {
	for r := lo; r < hi; r++ {
		s := src[r*k : (r+1)*k]
		d := dst[r*k : (r+1)*k]
		var mean float64
		for _, v := range s {
			mean += float64(v)
		}
		mean /= float64(k)
		var varsum float64
		for _, v := range s {
			dd := float64(v) - mean
			varsum += dd * dd
		}
		inv := 1 / math.Sqrt(varsum/float64(k)+float64(eps))
		for i, v := range s {
			d[i] = float32((float64(v)-mean)*inv)*gamma[i] + beta[i]
		}
	}
}

// ConcatInto concatenates ts along axis into out (allocated from ar when
// nil).
func ConcatInto(out *Tensor, axis int, ar *Arena, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of zero tensors")
	}
	rank := len(ts[0].shape)
	if axis < 0 {
		axis += rank
	}
	outShape := cloneInts(ts[0].shape)
	outShape[axis] = 0
	for _, t := range ts {
		if len(t.shape) != rank {
			panic("tensor: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d != axis && t.shape[d] != ts[0].shape[d] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch at dim %d: %v vs %v", d, t.shape, ts[0].shape))
			}
		}
		outShape[axis] += t.shape[axis]
	}
	if out == nil {
		out = ar.NewNoZero(outShape...)
	} else {
		checkInto(out, outShape, "ConcatInto")
	}

	// outer = product of dims before axis; inner = product after axis.
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= outShape[d]
	}
	for d := axis + 1; d < rank; d++ {
		inner *= outShape[d]
	}
	outRow := outShape[axis] * inner
	off := 0
	for _, t := range ts {
		row := t.shape[axis] * inner
		for o := 0; o < outer; o++ {
			copy(out.data[o*outRow+off:o*outRow+off+row], t.data[o*row:(o+1)*row])
		}
		off += row
	}
	return out
}

// EmbeddingInto gathers rows of table (V×D) by ids into out.
func EmbeddingInto(out *Tensor, table *Tensor, ids []int, ar *Arena) *Tensor {
	if len(table.shape) != 2 {
		panic("tensor: Embedding table must be 2-D")
	}
	v, d := table.shape[0], table.shape[1]
	if out == nil {
		out = ar.NewNoZero(len(ids), d)
	} else {
		checkInto(out, []int{len(ids), d}, "EmbeddingInto")
	}
	for i, id := range ids {
		if id < 0 || id >= v {
			panic(fmt.Sprintf("tensor: embedding id %d out of range [0,%d)", id, v))
		}
		copy(out.data[i*d:(i+1)*d], table.data[id*d:(id+1)*d])
	}
	return out
}

// CosineSimilarityInto computes the rowwise cosine similarity of two (B, D)
// tensors into out (B, 1).
func CosineSimilarityInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	if !a.SameShape(b) || len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: CosineSimilarity requires matching 2-D tensors, got %v, %v", a.shape, b.shape))
	}
	bs, d := a.shape[0], a.shape[1]
	if out == nil {
		out = ar.NewNoZero(bs, 1)
	} else {
		checkInto(out, []int{bs, 1}, "CosineSimilarityInto")
	}
	for r := 0; r < bs; r++ {
		var dot, na, nb float64
		for j := 0; j < d; j++ {
			x := float64(a.data[r*d+j])
			y := float64(b.data[r*d+j])
			dot += x * y
			na += x * x
			nb += y * y
		}
		denom := math.Sqrt(na) * math.Sqrt(nb)
		if denom == 0 {
			out.data[r] = 0
		} else {
			out.data[r] = float32(dot / denom)
		}
	}
	return out
}
