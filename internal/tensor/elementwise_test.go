package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddSubMulDiv(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	if got := Add(a, b); got.Sum() != 20 {
		t.Fatalf("Add sum = %v", got.Sum())
	}
	if got := Sub(a, b); got.At(0, 0) != -3 {
		t.Fatalf("Sub wrong")
	}
	if got := Mul(a, b); got.At(1, 1) != 4 {
		t.Fatalf("Mul wrong")
	}
	if got := Div(a, b); got.At(1, 1) != 4 {
		t.Fatalf("Div wrong")
	}
}

func TestBroadcastRowVector(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	bias := FromSlice([]float32{10, 20, 30}, 3)
	got := Add(a, bias)
	want := FromSlice([]float32{11, 22, 33, 14, 25, 36}, 2, 3)
	if !AllClose(got, want, 0, 0) {
		t.Fatalf("broadcast add = %v", got)
	}
}

func TestBroadcastScalar(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	s := FromSlice([]float32{10}, 1)
	got := Add(a, s)
	if got.At(0) != 11 || got.At(1) != 12 {
		t.Fatalf("scalar broadcast = %v", got)
	}
}

func TestBinaryShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "shape mismatch")
	Add(New(2, 3), New(2, 2))
}

func TestMaximum(t *testing.T) {
	a := FromSlice([]float32{-1, 5}, 2)
	b := FromSlice([]float32{0, 0}, 2)
	got := Maximum(a, b)
	if got.At(0) != 0 || got.At(1) != 5 {
		t.Fatalf("Maximum = %v", got)
	}
}

func TestReLUProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := Rand(rng, 10, 3, 7)
		r := ReLU(x)
		// Non-negative and idempotent.
		for _, v := range r.Data() {
			if v < 0 {
				return false
			}
		}
		return AllClose(ReLU(r), r, 0, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoidRange(t *testing.T) {
	x := FromSlice([]float32{-100, -1, 0, 1, 100}, 5)
	s := Sigmoid(x)
	if math.Abs(float64(s.At(2))-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0) = %v", s.At(2))
	}
	for _, v := range s.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid out of range: %v", v)
		}
	}
	if s.At(0) > 1e-6 || s.At(4) < 1-1e-6 {
		t.Fatalf("sigmoid saturation wrong: %v", s)
	}
}

func TestTanhOdd(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		x := FromSlice([]float32{v}, 1)
		nx := FromSlice([]float32{-v}, 1)
		return math.Abs(float64(Tanh(x).At(0)+Tanh(nx).At(0))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExpSqrt(t *testing.T) {
	x := FromSlice([]float32{0, 1}, 2)
	e := Exp(x)
	if math.Abs(float64(e.At(0))-1) > 1e-6 || math.Abs(float64(e.At(1))-math.E) > 1e-5 {
		t.Fatalf("Exp wrong: %v", e)
	}
	s := Sqrt(FromSlice([]float32{4, 9}, 2))
	if s.At(0) != 2 || s.At(1) != 3 {
		t.Fatalf("Sqrt wrong: %v", s)
	}
}

func TestGELUAnchors(t *testing.T) {
	x := FromSlice([]float32{0, 10, -10}, 3)
	g := GELU(x)
	if g.At(0) != 0 {
		t.Fatalf("GELU(0) = %v", g.At(0))
	}
	if math.Abs(float64(g.At(1))-10) > 1e-3 {
		t.Fatalf("GELU(10) = %v, want ~10", g.At(1))
	}
	if math.Abs(float64(g.At(2))) > 1e-3 {
		t.Fatalf("GELU(-10) = %v, want ~0", g.At(2))
	}
}

func TestScaleAndApplyInPlace(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	if got := a.Scale(3); got.At(1) != 6 {
		t.Fatalf("Scale wrong")
	}
	a.ApplyInPlace(func(v float32) float32 { return v + 1 })
	if a.At(0) != 2 {
		t.Fatalf("ApplyInPlace wrong")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{3, -1, 7, 2}, 4)
	if a.Sum() != 11 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != 2.75 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.Max() != 7 {
		t.Fatalf("Max = %v", a.Max())
	}
	if a.ArgMax() != 2 {
		t.Fatalf("ArgMax = %v", a.ArgMax())
	}
	empty := New(0)
	if empty.Mean() != 0 {
		t.Fatalf("empty Mean should be 0")
	}
}

func TestMaxEmptyPanics(t *testing.T) {
	defer expectPanic(t, "empty max")
	New(0).Max()
}

func TestParallelForCoversRange(t *testing.T) {
	// Twice the break-even at width 2, so the range is split.
	n := int(4 * nsHandOff / nsStream)
	seen := make([]int32, n)
	SetMaxWorkers(2)
	pooled := fannedOut(func() {
		ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
	})
	SetMaxWorkers(0)
	if !pooled {
		t.Fatalf("ParallelFor(%d) did not fan out at width 2", n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	// Zero and negative ranges are no-ops.
	ParallelFor(0, func(lo, hi int) { t.Fatalf("body called for n=0") })
	ParallelFor(-5, func(lo, hi int) { t.Fatalf("body called for n<0") })
}
