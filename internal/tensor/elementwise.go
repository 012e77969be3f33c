package tensor

// Apply returns a new tensor with f applied to every element. The
// registered elementwise ops run the typed loops of loops.go instead.
func (t *Tensor) Apply(f func(float32) float32) *Tensor {
	return t.Clone().ApplyInPlace(f)
}

// ApplyInPlace applies f to every element in place and returns t.
func (t *Tensor) ApplyInPlace(f func(float32) float32) *Tensor {
	ParallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.data[i] = f(t.data[i])
		}
	})
	return t
}

// Add returns a + b with trailing-dimension or scalar broadcasting of b.
func Add(a, b *Tensor) *Tensor { return AddInto(nil, a, b, nil) }

// Sub returns a - b with trailing-dimension or scalar broadcasting of b.
func Sub(a, b *Tensor) *Tensor { return SubInto(nil, a, b, nil) }

// Mul returns the elementwise product with broadcasting of b.
func Mul(a, b *Tensor) *Tensor { return MulInto(nil, a, b, nil) }

// Div returns the elementwise quotient with broadcasting of b.
func Div(a, b *Tensor) *Tensor { return DivInto(nil, a, b, nil) }

// Maximum returns the elementwise maximum a > b ? a : b with broadcasting
// of b.
func Maximum(a, b *Tensor) *Tensor { return MaximumInto(nil, a, b, nil) }

// Scale returns t * s.
func (t *Tensor) Scale(s float32) *Tensor { return ScaleInto(nil, t, s, nil) }

// ReLU returns x > 0 ? x : 0 elementwise.
func ReLU(t *Tensor) *Tensor { return ReLUInto(nil, t, nil) }

// Sigmoid returns 1/(1+exp(-x)) elementwise.
func Sigmoid(t *Tensor) *Tensor { return SigmoidInto(nil, t, nil) }

// Tanh returns tanh(x) elementwise.
func Tanh(t *Tensor) *Tensor { return TanhInto(nil, t, nil) }

// Exp returns exp(x) elementwise.
func Exp(t *Tensor) *Tensor { return ExpInto(nil, t, nil) }

// Sqrt returns sqrt(x) elementwise.
func Sqrt(t *Tensor) *Tensor { return SqrtInto(nil, t, nil) }

// GELU returns the Gaussian error linear unit (tanh approximation), the
// activation used by Transformer feed-forward blocks (MT-DNN).
func GELU(t *Tensor) *Tensor { return GELUInto(nil, t, nil) }

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the largest element. Panics on empty tensors.
func (t *Tensor) Max() float32 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the largest element.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}
