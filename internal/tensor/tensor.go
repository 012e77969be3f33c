// Package tensor implements a small dense float32 tensor engine with
// row-major layout and data-parallel kernels. It is the numeric substrate
// for every operator executed by the DUET runtime: the engine computes real
// values on the host CPU while device models account for time, so tests can
// check numerical correctness of compiled and partitioned execution.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// scalar-less tensor; use the constructors to build usable values.
type Tensor struct {
	shape []int
	data  []float32
	// pin is non-nil on long-lived weight tensors: their contents are stable
	// for the life of the model, so the record owns their packed-GEMM panels
	// (packcache.go) and the arena refuses to recycle their storage. Views
	// share the record with their base.
	pin *pin
}

// MarkPinned flags t as a long-lived weight tensor: it keeps its packed-GEMM
// panels from the first product on, for as long as it or a view of it is
// reachable, and the arena will refuse to recycle its storage. Graph
// constants are pinned at construction.
func (t *Tensor) MarkPinned() *Tensor {
	if t.pin == nil {
		t.pin = new(pin)
	}
	return t
}

// New returns a zero-filled tensor of the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := checkedNumel(shape)
	return &Tensor{shape: cloneInts(shape), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkedNumel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)", len(data), shape, n))
	}
	return &Tensor{shape: cloneInts(shape), data: data}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Rand returns a tensor with elements (u*2 - 1) * bound, u drawn in order
// from src by rand.Float32's rule, so uniform in [-bound, bound). src is any
// rand.Source; a *RNG is the fast path. Both yield math/rand's Float32
// stream: Rand(NewRNG(s), …) and Rand(rand.New(rand.NewSource(s)), …) are
// bit-identical. A nil src panics: experiment reproducibility requires
// explicit seeding everywhere.
func Rand(src rand.Source, bound float32, shape ...int) *Tensor {
	if src == nil {
		panic("tensor: Rand requires a non-nil rand.Source")
	}
	t := New(shape...)
	if r, ok := src.(*RNG); ok {
		r.fill(t.data, bound)
		return t
	}
	for i := range t.data {
		f := float32(1)
		for f == 1 {
			f = float32(float64(src.Int63()) / (1 << 63))
		}
		t.data[i] = (f*2 - 1) * bound
	}
	return t
}

// Arange returns a 1-D tensor [0, 1, ..., n-1].
func Arange(n int) *Tensor {
	t := New(n)
	for i := 0; i < n; i++ {
		t.data[i] = float32(i)
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice is shared;
// callers must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i. Negative i counts from the end.
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.shape)
	}
	return t.shape[i]
}

// Numel returns the total number of elements.
func (t *Tensor) Numel() int { return len(t.data) }

// Bytes returns the storage size of the tensor payload in bytes.
func (t *Tensor) Bytes() int { return 4 * len(t.data) }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", ix, i, t.shape[i]))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: cloneInts(t.shape), data: d}
}

// Reshape returns a view with the new shape sharing the same storage.
// One dimension may be -1 and is inferred. Panics if sizes are incompatible.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = cloneInts(shape)
	infer := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: Reshape allows at most one -1 dimension")
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: invalid dimension %d", d))
		default:
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for shape %v from %d elements", shape, len(t.data)))
		}
		shape[infer] = len(t.data) / known
		known *= shape[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %d elements", shape, len(t.data)))
	}
	return &Tensor{shape: shape, data: t.data, pin: t.pin}
}

// Row returns a copy of row i of a 2-D tensor as a 1-D tensor.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	cols := t.shape[1]
	out := New(cols)
	copy(out.data, t.data[i*cols:(i+1)*cols])
	return out
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus up to 8 leading values).
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n > show {
		fmt.Fprintf(&b, " ... (%d elems)", n)
	}
	b.WriteString("]")
	return b.String()
}

// AllClose reports whether a and b have the same shape and all elements are
// within atol + rtol*|b| of each other.
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		x, y := float64(a.data[i]), float64(b.data[i])
		if math.IsNaN(x) || math.IsNaN(y) {
			return false
		}
		if math.Abs(x-y) > atol+rtol*math.Abs(y) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute elementwise difference between two
// same-shaped tensors. An element that is NaN on exactly one side differs by
// +Inf; NaN on both sides, like the same infinity on both, differs by 0.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.SameShape(b) {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i := range a.data {
		x, y := float64(a.data[i]), float64(b.data[i])
		if math.IsNaN(x) != math.IsNaN(y) {
			return math.Inf(1)
		}
		if d := math.Abs(x - y); d > m {
			m = d
		}
	}
	return m
}

// Numel returns the element count of a shape, treating the empty shape as a
// scalar with one element.
func Numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkedNumel returns the element count of shape, panicking on a negative
// dimension. The message formats a copy, so shape does not escape and a
// variadic New(…) call keeps its shape on the stack.
func checkedNumel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", cloneInts(shape)))
		}
		n *= d
	}
	return n
}

func cloneInts(s []int) []int {
	c := make([]int, len(s))
	copy(c, s)
	return c
}
