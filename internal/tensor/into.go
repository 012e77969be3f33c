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

// intoShape returns out checked against shape, or a fresh unzeroed tensor
// of that shape from ar when out is nil.
func intoShape(out *Tensor, shape []int, ar *Arena, name string) *Tensor {
	if out == nil {
		return ar.NewNoZero(shape...)
	}
	checkInto(out, shape, name)
	return out
}

// unaryInto runs a unary opcode's loop over t into out, chunk-parallel.
func unaryInto(out *Tensor, t *Tensor, ar *Arena, name string, op ChainOp) *Tensor {
	out = intoShape(out, t.shape, ar, name)
	loop, n := unaryLoops[op], len(t.data)
	if parts, grain := fanOut(n, float64(n)*elemNs(op)); parts > 1 {
		ParallelForChunked(n, parts, grain, func(lo, hi int) { loop(out.data[lo:hi], t.data[lo:hi]) })
		return out
	}
	loop(out.data, t.data)
	return out
}

// binaryOpInto runs a binary opcode's loop over a and b into out, b
// broadcast as a full tensor, a trailing row or a scalar.
func binaryOpInto(out *Tensor, a, b *Tensor, ar *Arena, name string, op ChainOp) *Tensor {
	mode, ok := broadcastMode(a.shape, b.shape)
	if !ok {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", name, a.shape, b.shape))
	}
	out = intoShape(out, a.shape, ar, name)
	if parts, grain := fanOut(len(a.data), float64(len(a.data))*nsStream); parts > 1 {
		ParallelForChunked(len(a.data), parts, grain, func(lo, hi int) { binaryChunk(op, mode, out.data[lo:hi], a.data[lo:hi], b.data, lo) })
		return out
	}
	binaryChunk(op, mode, out.data, a.data, b.data, 0)
	return out
}

// binaryChunk computes dst = a ∘ b for the chunk of the stream that starts
// at flat index lo; b is the whole operand.
func binaryChunk(op ChainOp, mode argMode, dst, a, b []float32, lo int) {
	switch mode {
	case argFull:
		binaryLoops[op](dst, a, b[lo:])
	case argRow:
		rowWalk(binaryLoops[op], dst, a, lo, b, false)
	default:
		scalarLoops[op][0](dst, a, b[0])
	}
}

// AddInto computes a + b (broadcasting b) into out.
func AddInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Add", ChainAdd)
}

// SubInto computes a - b (broadcasting b) into out.
func SubInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Sub", ChainSub)
}

// MulInto computes a * b (broadcasting b) into out.
func MulInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Mul", ChainMul)
}

// DivInto computes a / b (broadcasting b) into out.
func DivInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Div", ChainDiv)
}

// MaximumInto computes max(a, b) (broadcasting b) into out: a > b ? a : b,
// so a NaN in either operand, or two zeros, give b.
func MaximumInto(out *Tensor, a, b *Tensor, ar *Arena) *Tensor {
	return binaryOpInto(out, a, b, ar, "Maximum", ChainMaximum)
}

// ScaleInto computes t * s into out.
func ScaleInto(out *Tensor, t *Tensor, s float32, ar *Arena) *Tensor {
	out = intoShape(out, t.shape, ar, "ScaleInto")
	if parts, grain := fanOut(len(t.data), float64(len(t.data))*nsStream); parts > 1 {
		ParallelForChunked(len(t.data), parts, grain, func(lo, hi int) { mulScalar(out.data[lo:hi], t.data[lo:hi], s) })
		return out
	}
	mulScalar(out.data, t.data, s)
	return out
}

// ReLUInto computes x > 0 ? x : 0 into out (NaN and −0 give +0).
func ReLUInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return unaryInto(out, t, ar, "ReLUInto", ChainReLU)
}

// SigmoidInto computes 1/(1+exp(-x)) into out.
func SigmoidInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return unaryInto(out, t, ar, "SigmoidInto", ChainSigmoid)
}

// TanhInto computes tanh(x) into out.
func TanhInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return unaryInto(out, t, ar, "TanhInto", ChainTanh)
}

// ExpInto computes exp(x) into out.
func ExpInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return unaryInto(out, t, ar, "ExpInto", ChainExp)
}

// SqrtInto computes sqrt(x) into out.
func SqrtInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return unaryInto(out, t, ar, "SqrtInto", ChainSqrt)
}

// GELUInto computes the tanh-approximated GELU into out.
func GELUInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	return unaryInto(out, t, ar, "GELUInto", ChainGELU)
}

// SoftmaxInto applies a numerically stable softmax along the last dimension
// into out.
func SoftmaxInto(out *Tensor, t *Tensor, ar *Arena) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: Softmax of a scalar")
	}
	k := t.Dim(-1)
	rows := len(t.data) / k
	out = intoShape(out, t.shape, ar, "SoftmaxInto")
	if parts, grain := fanOut(rows, float64(len(t.data))*(nsTranscendental+nsStream)); parts > 1 {
		ParallelForChunked(rows, parts, grain, func(lo, hi int) {
			softmaxRows(out.data, t.data, k, 1, lo, hi)
		})
		return out
	}
	softmaxRows(out.data, t.data, k, 1, 0, rows)
	return out
}

// softmaxRows writes the softmax of rows [lo, hi) of src, each element
// first scaled by scale, to dst (which may be src). The scaled value is
// rounded to float32 before use, as a separate scaling pass would store it,
// and a scale of 1 changes no bit.
func softmaxRows(dst, src []float32, k int, scale float32, lo, hi int) {
	var e [vchunk]float64
	for r := lo; r < hi; r++ {
		s := src[r*k : (r+1)*k]
		d := dst[r*k : (r+1)*k]
		m := float32(s[0] * scale)
		for _, v := range s[1:] {
			if v := float32(v * scale); v > m {
				m = v
			}
		}
		// The exps fill a chunk, then are stored and summed in index order.
		var sum float64
		for lo := 0; lo < k; lo += vchunk {
			ek := e[:min(vchunk, k-lo)]
			for i := range ek {
				ek[i] = float64(float32(s[lo+i]*scale) - m)
			}
			expBatch(ek, ek)
			for i, v := range ek {
				d[lo+i] = float32(v)
				sum += v
			}
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
	out = intoShape(out, t.shape, ar, "LayerNormInto")
	// Three passes over each row: the mean, the variance, the output.
	if parts, grain := fanOut(rows, float64(len(t.data))*3*nsStream); parts > 1 {
		ParallelForChunked(rows, parts, grain, func(lo, hi int) {
			layerNormRows(out.data, t.data, gamma.data, beta.data, k, eps, lo, hi)
		})
		return out
	}
	layerNormRows(out.data, t.data, gamma.data, beta.data, k, eps, 0, rows)
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
	out = intoShape(out, outShape, ar, "ConcatInto")

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
	out = intoShape(out, []int{len(ids), d}, ar, "EmbeddingInto")
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
	out = intoShape(out, []int{bs, 1}, ar, "CosineSimilarityInto")
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
