package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewShapeAndNumel(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Numel() != 24 {
		t.Fatalf("Numel = %d, want 24", tt.Numel())
	}
	if tt.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", tt.Dims())
	}
	if tt.Dim(-1) != 4 || tt.Dim(0) != 2 {
		t.Fatalf("Dim lookup wrong: %v", tt.Shape())
	}
	if tt.Bytes() != 96 {
		t.Fatalf("Bytes = %d, want 96", tt.Bytes())
	}
}

// TestMaxAbsDiff pins the difference MaxAbsDiff reports, NaN and
// infinities included: a NaN against a number must not read as equal.
func TestMaxAbsDiff(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		name string
		a, b []float32
		want float64
	}{
		{"equal", []float32{1, -2, 0}, []float32{1, -2, 0}, 0},
		{"largest difference", []float32{1, -2, 0.5}, []float32{1.5, 2, 0}, 4},
		{"NaN against a number", []float32{1, nan, 3}, []float32{1, 2, 3}, math.Inf(1)},
		{"number against NaN", []float32{1, 2, 3}, []float32{nan, 2, 3}, math.Inf(1)},
		{"NaN on both sides", []float32{nan, 2}, []float32{nan, 2.25}, 0.25},
		{"NaN after a difference", []float32{5, nan}, []float32{1, 0}, math.Inf(1)},
		{"same infinity", []float32{inf, -inf}, []float32{inf, -inf}, 0},
		{"opposite infinities", []float32{inf}, []float32{-inf}, math.Inf(1)},
		{"infinity against a number", []float32{1}, []float32{inf}, math.Inf(1)},
	} {
		if got := MaxAbsDiff(FromSlice(tc.a, len(tc.a)), FromSlice(tc.b, len(tc.b))); got != tc.want {
			t.Errorf("%s: MaxAbsDiff = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer expectPanic(t, "negative dim")
	New(2, -1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "length mismatch")
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4)
	tt.Set(7.5, 2, 3)
	if got := tt.At(2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major layout: flat index of (2,3) is 2*4+3.
	if tt.Data()[11] != 7.5 {
		t.Fatalf("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "index out of range")
	New(2, 2).At(2, 0)
}

func TestAtRankMismatchPanics(t *testing.T) {
	defer expectPanic(t, "rank mismatch")
	New(2, 2).At(1)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatalf("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := Arange(12)
	b := a.Reshape(3, 4)
	b.Set(100, 0, 1)
	if a.At(1) != 100 {
		t.Fatalf("Reshape must be a view")
	}
}

func TestReshapeInfer(t *testing.T) {
	a := Arange(12)
	b := a.Reshape(2, -1)
	if !ShapeEq(b.Shape(), []int{2, 6}) {
		t.Fatalf("inferred shape = %v, want [2 6]", b.Shape())
	}
}

func TestReshapeTwoInferPanics(t *testing.T) {
	defer expectPanic(t, "two -1 dims")
	Arange(12).Reshape(-1, -1)
}

func TestReshapeIncompatiblePanics(t *testing.T) {
	defer expectPanic(t, "bad reshape")
	Arange(12).Reshape(5, 3)
}

func TestRowCopies(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if !ShapeEq(r.Shape(), []int{3}) || r.At(0) != 4 || r.At(2) != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	r.Set(0, 0)
	if a.At(1, 0) != 4 {
		t.Fatalf("Row must copy")
	}
}

func TestFullAndOnes(t *testing.T) {
	f := Full(2.5, 3)
	for i := 0; i < 3; i++ {
		if f.At(i) != 2.5 {
			t.Fatalf("Full wrong at %d", i)
		}
	}
	if Ones(2, 2).Sum() != 4 {
		t.Fatalf("Ones sum wrong")
	}
}

func TestRandDeterministic(t *testing.T) {
	a := Rand(rand.New(rand.NewSource(1)), 1, 100)
	b := Rand(rand.New(rand.NewSource(1)), 1, 100)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatalf("Rand not deterministic under seed")
	}
	for _, v := range a.Data() {
		if v < -1 || v >= 1 {
			t.Fatalf("Rand value %v outside [-1,1)", v)
		}
	}
}

func TestRandNilRNGPanics(t *testing.T) {
	defer expectPanic(t, "nil rng")
	Rand(nil, 1, 2)
}

func TestAllClose(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1.0000001, 2.0000001}, 2)
	if !AllClose(a, b, 1e-5, 1e-5) {
		t.Fatalf("AllClose should accept tiny differences")
	}
	c := FromSlice([]float32{1, 3}, 2)
	if AllClose(a, c, 1e-5, 1e-5) {
		t.Fatalf("AllClose should reject large differences")
	}
	d := FromSlice([]float32{1, 2, 3}, 3)
	if AllClose(a, d, 1, 1) {
		t.Fatalf("AllClose should reject shape mismatch")
	}
	nan := FromSlice([]float32{float32(math.NaN()), 2}, 2)
	if AllClose(nan, nan, 1, 1) {
		t.Fatalf("AllClose should reject NaN")
	}
}

func TestStringTruncates(t *testing.T) {
	s := Arange(20).String()
	if len(s) == 0 {
		t.Fatalf("empty String()")
	}
}

func TestShapeEq(t *testing.T) {
	if !ShapeEq([]int{1, 2}, []int{1, 2}) || ShapeEq([]int{1}, []int{1, 2}) || ShapeEq([]int{1, 3}, []int{1, 2}) {
		t.Fatalf("ShapeEq broken")
	}
}

func TestNumelHelper(t *testing.T) {
	if Numel([]int{2, 3, 4}) != 24 || Numel(nil) != 1 {
		t.Fatalf("Numel helper broken")
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
