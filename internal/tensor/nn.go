package tensor

import "fmt"

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
