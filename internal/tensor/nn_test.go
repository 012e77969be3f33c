package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(12)
		x := Rand(rng, 5, rows, cols)
		s := SoftmaxInto(nil, x, nil)
		for r := 0; r < rows; r++ {
			var sum float64
			for c := 0; c < cols; c++ {
				v := s.At(r, c)
				if v < 0 || v > 1 {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := Rand(rng, 2, 3, 7)
	shifted := AddInto(nil, x, Full(100, 1), nil)
	if !AllClose(SoftmaxInto(nil, x, nil), SoftmaxInto(nil, shifted, nil), 1e-4, 1e-4) {
		t.Fatalf("softmax not shift-invariant")
	}
}

func TestSoftmaxPreservesArgmax(t *testing.T) {
	x := FromSlice([]float32{0.1, 5, -2}, 1, 3)
	if SoftmaxInto(nil, x, nil).ArgMax() != 1 {
		t.Fatalf("softmax moved the argmax")
	}
}

func TestLayerNormStats(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := Rand(rng, 3, 4, 16)
	out := LayerNormInto(nil, x, Ones(16), New(16), 1e-5, nil)
	for r := 0; r < 4; r++ {
		row := out.Row(r)
		if math.Abs(row.Mean()) > 1e-4 {
			t.Fatalf("row %d mean %g, want ~0", r, row.Mean())
		}
		var v float64
		for _, e := range row.Data() {
			v += float64(e) * float64(e)
		}
		v /= 16
		if math.Abs(v-1) > 1e-2 {
			t.Fatalf("row %d variance %g, want ~1", r, v)
		}
	}
}

func TestLayerNormGammaBeta(t *testing.T) {
	x := FromSlice([]float32{-1, 1}, 1, 2)
	out := LayerNormInto(nil, x, Full(2, 2), Full(3, 2), 0, nil)
	// normalised = [-1, 1]; out = [-2+3, 2+3] = [1, 5]
	if out.At(0, 0) != 1 || out.At(0, 1) != 5 {
		t.Fatalf("LayerNorm affine wrong: %v", out)
	}
}

func TestConcatAxis0And1(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6}, 1, 2)
	c0 := ConcatInto(nil, 0, nil, a, b)
	if !ShapeEq(c0.Shape(), []int{3, 2}) || c0.At(2, 1) != 6 {
		t.Fatalf("Concat axis0 wrong: %v", c0)
	}
	d := FromSlice([]float32{7, 8}, 2, 1)
	c1 := ConcatInto(nil, 1, nil, a, d)
	if !ShapeEq(c1.Shape(), []int{2, 3}) || c1.At(0, 2) != 7 || c1.At(1, 2) != 8 {
		t.Fatalf("Concat axis1 wrong: %v", c1)
	}
	cn := ConcatInto(nil, -1, nil, a, d)
	if !AllClose(cn, c1, 0, 0) {
		t.Fatalf("negative axis concat mismatch")
	}
}

func TestConcatMismatchPanics(t *testing.T) {
	defer expectPanic(t, "concat mismatch")
	ConcatInto(nil, 0, nil, New(2, 2), New(2, 3))
}

func TestSplitInvertsConcat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(4)
		sizes := []int{1 + rng.Intn(3), 1 + rng.Intn(3), 1 + rng.Intn(3)}
		parts := make([]*Tensor, len(sizes))
		for i, s := range sizes {
			parts[i] = Rand(rng, 1, rows, s)
		}
		joined := ConcatInto(nil, 1, nil, parts...)
		back := Split(joined, 1, sizes)
		for i := range parts {
			if !AllClose(back[i], parts[i], 0, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBadSizesPanics(t *testing.T) {
	defer expectPanic(t, "bad split sizes")
	Split(New(2, 4), 1, []int{1, 2})
}

func TestEmbedding(t *testing.T) {
	table := FromSlice([]float32{0, 0, 1, 1, 2, 2}, 3, 2)
	out := EmbeddingInto(nil, table, []int{2, 0, 1, 2}, nil)
	want := FromSlice([]float32{2, 2, 0, 0, 1, 1, 2, 2}, 4, 2)
	if !AllClose(out, want, 0, 0) {
		t.Fatalf("Embedding = %v", out)
	}
}

func TestEmbeddingOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "bad id")
	EmbeddingInto(nil, New(3, 2), []int{3}, nil)
}

func TestLSTMCellZeroWeightsKeepsState(t *testing.T) {
	b, in, h := 2, 3, 4
	x := Ones(b, in)
	h0 := Full(0.5, b, h)
	c0 := Full(0.25, b, h)
	wx := New(4*h, in)
	wh := New(4*h, h)
	bias := New(4 * h)
	h1, c1 := LSTMCell(x, h0, c0, wx, wh, bias)
	// All gates sigmoid(0)=0.5, cell candidate tanh(0)=0: c' = 0.5*c.
	for i := 0; i < b; i++ {
		for j := 0; j < h; j++ {
			if math.Abs(float64(c1.At(i, j))-0.125) > 1e-6 {
				t.Fatalf("c' = %v, want 0.125", c1.At(i, j))
			}
			want := 0.5 * math.Tanh(0.125)
			if math.Abs(float64(h1.At(i, j))-want) > 1e-6 {
				t.Fatalf("h' = %v, want %v", h1.At(i, j), want)
			}
		}
	}
}

func TestLSTMCellBoundedOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b, in, h := 3, 5, 8
	x := Rand(rng, 3, b, in)
	h0 := Rand(rng, 1, b, h)
	c0 := Rand(rng, 1, b, h)
	wx := Rand(rng, 1, 4*h, in)
	wh := Rand(rng, 1, 4*h, h)
	bias := Rand(rng, 1, 4*h)
	h1, _ := LSTMCell(x, h0, c0, wx, wh, bias)
	for _, v := range h1.Data() {
		if v < -1 || v > 1 {
			t.Fatalf("LSTM hidden %v outside [-1,1]", v)
		}
	}
}

func TestGRUCellZeroWeights(t *testing.T) {
	b, in, h := 1, 2, 3
	x := Ones(b, in)
	h0 := Full(0.8, b, h)
	out := GRUCell(x, h0, New(3*h, in), New(3*h, h), New(3*h))
	// update gate z=0.5, candidate tanh(0)=0 → h' = 0.5*h0.
	for j := 0; j < h; j++ {
		if math.Abs(float64(out.At(0, j))-0.4) > 1e-6 {
			t.Fatalf("GRU h' = %v, want 0.4", out.At(0, j))
		}
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{2, 0, 1, 0}, 2, 2)
	out := CosineSimilarityInto(nil, a, b, nil)
	if math.Abs(float64(out.At(0, 0))-1) > 1e-6 {
		t.Fatalf("parallel vectors cos = %v, want 1", out.At(0, 0))
	}
	if math.Abs(float64(out.At(1, 0))) > 1e-6 {
		t.Fatalf("orthogonal vectors cos = %v, want 0", out.At(1, 0))
	}
}

func TestCosineSimilarityZeroVector(t *testing.T) {
	a := New(1, 3)
	b := Ones(1, 3)
	if CosineSimilarityInto(nil, a, b, nil).At(0, 0) != 0 {
		t.Fatalf("zero vector similarity should be 0")
	}
}
