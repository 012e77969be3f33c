package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {64, 64, 64}, {65, 130, 67}, {1, 512, 1}, {128, 1, 128}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Rand(rng, 1, m, k)
		b := Rand(rng, 1, k, n)
		got := MatMulInto(nil, a, b, nil)
		want := MatMulNaive(a, b)
		if !AllClose(got, want, 1e-4, 1e-4) {
			t.Fatalf("MatMul(%dx%d,%dx%d) diverges from naive by %g", m, k, k, n, MaxAbsDiff(got, want))
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Rand(rng, 1, 9, 9)
	id := New(9, 9)
	for i := 0; i < 9; i++ {
		id.Set(1, i, i)
	}
	if !AllClose(MatMulInto(nil, a, id, nil), a, 1e-6, 1e-6) {
		t.Fatalf("A·I != A")
	}
	if !AllClose(MatMulInto(nil, id, a, nil), a, 1e-6, 1e-6) {
		t.Fatalf("I·A != A")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "inner dim mismatch")
	MatMulInto(nil, New(2, 3), New(4, 2), nil)
}

func TestMatMulNon2DPanics(t *testing.T) {
	defer expectPanic(t, "rank")
	MatMulInto(nil, New(2, 3, 4), New(4, 2), nil)
}

func TestLinearMatchesMatMulTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := Rand(rng, 1, 4, 6)
	w := Rand(rng, 1, 5, 6)
	bias := Rand(rng, 1, 5)
	got := LinearInto(nil, x, w, bias, nil)
	want := AddInto(nil, MatMulInto(nil, x, Transpose2DInto(nil, w, nil), nil), bias, nil)
	if !AllClose(got, want, 1e-5, 1e-5) {
		t.Fatalf("Linear != x·wᵀ+b, diff %g", MaxAbsDiff(got, want))
	}
}

func TestLinearNilBias(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := Rand(rng, 1, 2, 3)
	w := Rand(rng, 1, 4, 3)
	got := LinearInto(nil, x, w, nil, nil)
	want := MatMulInto(nil, x, Transpose2DInto(nil, w, nil), nil)
	if !AllClose(got, want, 1e-5, 1e-5) {
		t.Fatalf("Linear nil-bias mismatch")
	}
}

func TestTranspose2DInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(20)
		n := 1 + rng.Intn(20)
		a := Rand(rng, 1, m, n)
		return AllClose(Transpose2DInto(nil, Transpose2DInto(nil, a, nil), nil), a, 0, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	// (A+B)·C == A·C + B·C within float32 tolerance (property-based).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := Rand(rng, 1, m, k)
		b := Rand(rng, 1, m, k)
		c := Rand(rng, 1, k, n)
		lhs := MatMulInto(nil, AddInto(nil, a, b, nil), c, nil)
		rhs := AddInto(nil, MatMulInto(nil, a, c, nil), MatMulInto(nil, b, c, nil), nil)
		return AllClose(lhs, rhs, 1e-3, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Rand(rng, 1, 3, 4, 5)
	b := Rand(rng, 1, 3, 5, 2)
	got := BatchMatMulInto(nil, a, b, nil)
	if !ShapeEq(got.Shape(), []int{3, 4, 2}) {
		t.Fatalf("BatchMatMul shape = %v", got.Shape())
	}
	for i := 0; i < 3; i++ {
		sa := FromSlice(a.Data()[i*20:(i+1)*20], 4, 5)
		sb := FromSlice(b.Data()[i*10:(i+1)*10], 5, 2)
		want := MatMulInto(nil, sa, sb, nil)
		slice := FromSlice(got.Data()[i*8:(i+1)*8], 4, 2)
		if !AllClose(slice, want, 1e-5, 1e-5) {
			t.Fatalf("batch %d mismatch", i)
		}
	}
}

func TestBatchMatMulMismatchPanics(t *testing.T) {
	defer expectPanic(t, "batch mismatch")
	BatchMatMulInto(nil, New(2, 3, 4), New(3, 4, 5), nil)
}
