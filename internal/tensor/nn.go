package tensor

import "fmt"

// Softmax applies a numerically stable softmax along the last dimension.
func Softmax(t *Tensor) *Tensor { return SoftmaxInto(nil, t, nil) }

// LayerNorm normalises the last dimension to zero mean / unit variance and
// applies per-feature gamma and beta.
func LayerNorm(t, gamma, beta *Tensor, eps float32) *Tensor {
	return LayerNormInto(nil, t, gamma, beta, eps, nil)
}

// Concat concatenates tensors along axis. All other dimensions must match.
func Concat(axis int, ts ...*Tensor) *Tensor { return ConcatInto(nil, axis, nil, ts...) }

// Split slices t along axis into parts with the given sizes (must sum to the
// axis length).
func Split(t *Tensor, axis int, sizes []int) []*Tensor {
	rank := len(t.shape)
	if axis < 0 {
		axis += rank
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != t.shape[axis] {
		panic(fmt.Sprintf("tensor: Split sizes %v do not sum to dim %d (%d)", sizes, axis, t.shape[axis]))
	}
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= t.shape[d]
	}
	for d := axis + 1; d < rank; d++ {
		inner *= t.shape[d]
	}
	srcRow := t.shape[axis] * inner
	parts := make([]*Tensor, len(sizes))
	off := 0
	for i, s := range sizes {
		shape := cloneInts(t.shape)
		shape[axis] = s
		p := New(shape...)
		row := s * inner
		for o := 0; o < outer; o++ {
			copy(p.data[o*row:(o+1)*row], t.data[o*srcRow+off:o*srcRow+off+row])
		}
		parts[i] = p
		off += row
	}
	return parts
}

// Embedding gathers rows of table (V×D) by integer ids stored in ids
// (any shape, values must be valid row indices), producing shape ids×D.
func Embedding(table *Tensor, ids []int) *Tensor { return EmbeddingInto(nil, table, ids, nil) }

// CosineSimilarity returns the rowwise cosine similarity of two (B, D)
// tensors as a (B, 1) tensor — the similarity head of the Siamese network.
func CosineSimilarity(a, b *Tensor) *Tensor { return CosineSimilarityInto(nil, a, b, nil) }
