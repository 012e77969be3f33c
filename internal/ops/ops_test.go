package ops

import (
	"math"
	"math/rand"
	"testing"

	"duet/internal/graph"
	"duet/internal/tensor"
)

func TestRegistryContainsCoreKinds(t *testing.T) {
	for _, kind := range []string{
		"relu", "sigmoid", "tanh", "gelu", "add", "sub", "mul", "div", "maximum",
		"dense", "matmul", "batch_matmul", "transpose", "conv2d", "maxpool2d",
		"global_avg_pool", "batchnorm2d", "lstm", "gru", "softmax", "layernorm",
		"concat", "reshape", "flatten", "embedding", "cosine_similarity", "mha",
	} {
		if _, err := Lookup(kind); err != nil {
			t.Errorf("missing operator %q", kind)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("warp_drive"); err == nil {
		t.Fatalf("expected error for unknown kind")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustLookup("warp_drive")
}

func TestKindsSorted(t *testing.T) {
	ks := Kinds()
	if len(ks) < 20 {
		t.Fatalf("suspiciously few registered kinds: %d", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("Kinds not sorted: %q >= %q", ks[i-1], ks[i])
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on incomplete def")
		}
	}()
	Register(&Def{Kind: "incomplete"})
}

func TestDenseInferAndExec(t *testing.T) {
	d := MustLookup("dense")
	out, err := d.Infer(nil, [][]int{{2, 3}, {4, 3}, {4}})
	if err != nil || !tensor.ShapeEq(out, []int{2, 4}) {
		t.Fatalf("dense infer = %v, %v", out, err)
	}
	if _, err := d.Infer(nil, [][]int{{2, 3}, {4, 5}}); err == nil {
		t.Fatalf("dense should reject mismatched inner dims")
	}
	if _, err := d.Infer(nil, [][]int{{2, 3}, {4, 3}, {5}}); err == nil {
		t.Fatalf("dense should reject bad bias")
	}
	rng := rand.New(rand.NewSource(1))
	x := tensor.Rand(rng, 1, 2, 3)
	w := tensor.Rand(rng, 1, 4, 3)
	b := tensor.Rand(rng, 1, 4)
	got := d.Exec(nil, []*tensor.Tensor{x, w, b}, nil)
	want := tensor.LinearInto(nil, x, w, b, nil)
	if !tensor.AllClose(got, want, 1e-6, 1e-6) {
		t.Fatalf("dense exec mismatch")
	}
}

func TestDenseCostScalesWithSize(t *testing.T) {
	d := MustLookup("dense")
	small := d.Cost(nil, [][]int{{1, 64}, {64, 64}}, []int{1, 64})
	big := d.Cost(nil, [][]int{{1, 128}, {128, 128}}, []int{1, 128})
	if big.FLOPs <= small.FLOPs || big.Bytes <= small.Bytes {
		t.Fatalf("cost must grow with size: %+v vs %+v", small, big)
	}
	if small.FLOPs != 2*64*64 {
		t.Fatalf("dense FLOPs = %v, want %v", small.FLOPs, 2*64*64)
	}
}

func TestConv2DInfer(t *testing.T) {
	d := MustLookup("conv2d")
	attrs := graph.Attrs{"stride": 2, "pad": 1}
	out, err := d.Infer(attrs, [][]int{{1, 3, 32, 32}, {16, 3, 3, 3}, {16}})
	if err != nil || !tensor.ShapeEq(out, []int{1, 16, 16, 16}) {
		t.Fatalf("conv2d infer = %v, %v", out, err)
	}
	if _, err := d.Infer(attrs, [][]int{{1, 4, 32, 32}, {16, 3, 3, 3}}); err == nil {
		t.Fatalf("conv2d should reject channel mismatch")
	}
	if _, err := d.Infer(graph.Attrs{"stride": 0}, [][]int{{1, 3, 8, 8}, {4, 3, 3, 3}}); err == nil {
		t.Fatalf("conv2d should reject stride 0")
	}
}

func TestConv2DCostMatchesFormula(t *testing.T) {
	d := MustLookup("conv2d")
	in := [][]int{{1, 3, 8, 8}, {4, 3, 3, 3}}
	out, err := d.Infer(graph.Attrs{"stride": 1, "pad": 1}, in)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Cost(graph.Attrs{"stride": 1, "pad": 1}, in, out)
	wantFLOPs := 2.0 * float64(1*4*8*8) * 3 * 3 * 3
	if math.Abs(c.FLOPs-wantFLOPs) > 1 {
		t.Fatalf("conv2d FLOPs = %v, want %v", c.FLOPs, wantFLOPs)
	}
	if c.SeqSteps != 1 || c.Launches != 1 {
		t.Fatalf("conv2d launch structure wrong: %+v", c)
	}
}

func TestLSTMInferShapes(t *testing.T) {
	d := MustLookup("lstm")
	in := [][]int{{1, 10, 8}, {32, 8}, {32, 8}, {32}}
	out, err := d.Infer(graph.Attrs{}, in)
	if err != nil || !tensor.ShapeEq(out, []int{1, 10, 8}) {
		t.Fatalf("lstm infer = %v, %v", out, err)
	}
	out, err = d.Infer(graph.Attrs{"last_only": 1}, in)
	if err != nil || !tensor.ShapeEq(out, []int{1, 8}) {
		t.Fatalf("lstm last_only infer = %v, %v", out, err)
	}
	if _, err := d.Infer(graph.Attrs{}, [][]int{{1, 10, 8}, {30, 8}, {32, 8}, {32}}); err == nil {
		t.Fatalf("lstm should reject non-multiple-of-4 wx")
	}
}

func TestLSTMSeqStepsEqualSeqLen(t *testing.T) {
	d := MustLookup("lstm")
	in := [][]int{{1, 100, 16}, {64, 16}, {64, 16}, {64}}
	c := d.Cost(graph.Attrs{}, in, []int{1, 100, 16})
	if c.SeqSteps != 100 {
		t.Fatalf("lstm SeqSteps = %d, want 100", c.SeqSteps)
	}
	if c.Launches != 2 {
		t.Fatalf("lstm Launches = %d, want 2 per step", c.Launches)
	}
}

func TestLSTMExecMatchesCellLoop(t *testing.T) { testRNNExecMatchesCellLoop(t, "lstm", 4) }
func TestGRUExecMatchesCellLoop(t *testing.T)  { testRNNExecMatchesCellLoop(t, "gru", 3) }

// testRNNExecMatchesCellLoop holds a recurrent op, with and without
// last_only and an arena, to a hand-written loop over the tensor package's
// one-step cell.
func testRNNExecMatchesCellLoop(t *testing.T, kind string, gates int) {
	rng := rand.New(rand.NewSource(9))
	b, seq, inDim, h := 2, 5, 3, 4
	x := tensor.Rand(rng, 1, b, seq, inDim)
	wx := tensor.Rand(rng, 1, gates*h, inDim)
	wh := tensor.Rand(rng, 1, gates*h, h)
	bias := tensor.Rand(rng, 1, gates*h)
	d := MustLookup(kind)
	in := []*tensor.Tensor{x, wx, wh, bias}
	full := d.Exec(graph.Attrs{}, in, nil)
	last := d.Exec(graph.Attrs{"last_only": 1}, in, nil)
	// Reference: manual cell loop.
	hs := tensor.New(b, h)
	cs := tensor.New(b, h)
	for s := 0; s < seq; s++ {
		xt := tensor.New(b, inDim)
		for r := 0; r < b; r++ {
			copy(xt.Data()[r*inDim:(r+1)*inDim], x.Data()[(r*seq+s)*inDim:(r*seq+s+1)*inDim])
		}
		if kind == "lstm" {
			hs, cs = tensor.LSTMCell(xt, hs, cs, wx, wh, bias)
		} else {
			hs = tensor.GRUCell(xt, hs, wx, wh, bias)
		}
	}
	if !bitEqual(last, hs) {
		t.Fatalf("%s last state mismatch: %g", kind, tensor.MaxAbsDiff(last, hs))
	}
	// Last timestep of the full sequence must equal the final state.
	for r := 0; r < b; r++ {
		for j := 0; j < h; j++ {
			if full.At(r, seq-1, j) != hs.At(r, j) {
				t.Fatalf("%s full[%d,%d,%d] != last state", kind, r, seq-1, j)
			}
		}
	}
	if got := d.Exec(graph.Attrs{}, in, tensor.NewArena()); !bitEqual(got, full) {
		t.Fatalf("%s Exec on an arena differs from Exec without one", kind)
	}
}

func TestGRUExecShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := tensor.Rand(rng, 1, 1, 6, 4)
	wx := tensor.Rand(rng, 1, 9, 4)
	wh := tensor.Rand(rng, 1, 9, 3)
	bias := tensor.Rand(rng, 1, 9)
	d := MustLookup("gru")
	out := d.Exec(graph.Attrs{}, []*tensor.Tensor{x, wx, wh, bias}, nil)
	if !tensor.ShapeEq(out.Shape(), []int{1, 6, 3}) {
		t.Fatalf("gru output shape = %v", out.Shape())
	}
	for _, v := range out.Data() {
		if v < -1 || v > 1 {
			t.Fatalf("gru hidden out of range: %v", v)
		}
	}
}

func TestEmbeddingExec(t *testing.T) {
	d := MustLookup("embedding")
	ids := tensor.FromSlice([]float32{1, 0, 2}, 1, 3)
	table := tensor.FromSlice([]float32{0, 0, 1, 1, 2, 2}, 3, 2)
	out := d.Exec(nil, []*tensor.Tensor{ids, table}, nil)
	if !tensor.ShapeEq(out.Shape(), []int{1, 3, 2}) {
		t.Fatalf("embedding shape = %v", out.Shape())
	}
	if out.At(0, 0, 0) != 1 || out.At(0, 2, 1) != 2 {
		t.Fatalf("embedding values wrong: %v", out)
	}
}

func TestConcatInfer(t *testing.T) {
	d := MustLookup("concat")
	out, err := d.Infer(graph.Attrs{"axis": 1}, [][]int{{1, 2}, {1, 5}})
	if err != nil || !tensor.ShapeEq(out, []int{1, 7}) {
		t.Fatalf("concat infer = %v, %v", out, err)
	}
	if _, err := d.Infer(graph.Attrs{"axis": 0}, [][]int{{1, 2}, {1, 5}}); err == nil {
		t.Fatalf("concat should reject mismatched non-axis dims")
	}
	if _, err := d.Infer(graph.Attrs{"axis": 5}, [][]int{{1, 2}}); err == nil {
		t.Fatalf("concat should reject bad axis")
	}
}

func TestReshapeInfer(t *testing.T) {
	d := MustLookup("reshape")
	out, err := d.Infer(graph.Attrs{"shape": []int{2, -1}}, [][]int{{1, 4, 3}})
	if err != nil || !tensor.ShapeEq(out, []int{2, 6}) {
		t.Fatalf("reshape infer = %v, %v", out, err)
	}
	if _, err := d.Infer(graph.Attrs{"shape": []int{5, -1}}, [][]int{{1, 4, 3}}); err == nil {
		t.Fatalf("reshape should reject non-divisible inference")
	}
	if _, err := d.Infer(graph.Attrs{}, [][]int{{2, 2}}); err == nil {
		t.Fatalf("reshape requires shape attr")
	}
}

func TestFlattenInferAndExec(t *testing.T) {
	d := MustLookup("flatten")
	out, err := d.Infer(nil, [][]int{{2, 3, 4}})
	if err != nil || !tensor.ShapeEq(out, []int{2, 12}) {
		t.Fatalf("flatten infer = %v, %v", out, err)
	}
	x := tensor.Arange(24).Reshape(2, 3, 4)
	got := d.Exec(nil, []*tensor.Tensor{x}, nil)
	if !tensor.ShapeEq(got.Shape(), []int{2, 12}) {
		t.Fatalf("flatten exec shape = %v", got.Shape())
	}
}

func TestMHAInferAndExec(t *testing.T) {
	d := MustLookup("mha")
	dm := 8
	in := [][]int{{1, 4, dm}, {3 * dm, dm}, {dm, dm}, {dm}}
	out, err := d.Infer(graph.Attrs{"heads": 2}, in)
	if err != nil || !tensor.ShapeEq(out, []int{1, 4, dm}) {
		t.Fatalf("mha infer = %v, %v", out, err)
	}
	if _, err := d.Infer(graph.Attrs{"heads": 3}, in); err == nil {
		t.Fatalf("mha should reject heads not dividing dim")
	}
	for _, w := range [][]int{{dm, dm}, {3 * dm, dm + 1}, {3 * dm}} {
		bad := [][]int{in[0], w, in[2], in[3]}
		if _, err := d.Infer(graph.Attrs{"heads": 2}, bad); err == nil {
			t.Fatalf("mha should reject wqkv of shape %v", w)
		}
	}
	rng := rand.New(rand.NewSource(20))
	wq := tensor.Rand(rng, 0.5, dm, dm)
	wk := tensor.Rand(rng, 0.5, dm, dm)
	wv := tensor.Rand(rng, 0.5, dm, dm)
	wqkv := tensor.ConcatInto(nil, 0, nil, wq, wk, wv)
	wo := tensor.Rand(rng, 0.5, dm, dm)
	bias := tensor.Rand(rng, 0.5, dm)
	for _, c := range []struct{ b, t, heads int }{{1, 4, 2}, {2, 5, 2}, {3, 9, 4}} {
		x := tensor.Rand(rng, 0.5, c.b, c.t, dm)
		want := mhaReference(x, wq, wk, wv, wo, bias, c.heads)
		attrs := graph.Attrs{"heads": c.heads}
		ins := []*tensor.Tensor{x, wqkv, wo, bias}
		if got := d.Exec(attrs, ins, nil); !bitEqual(got, want) {
			t.Fatalf("mha %+v differs from the per-head composition: max |Δ| %g", c, tensor.MaxAbsDiff(got, want))
		}
		ar := tensor.NewArena()
		for pass := 0; pass < 2; pass++ {
			got := d.Exec(attrs, ins, ar)
			if !bitEqual(got, want) {
				t.Fatalf("mha %+v arena pass %d differs from the per-head composition", c, pass)
			}
			ar.Release(got)
		}
	}
	// Single-head attention with T=1 reduces to x·wqᵀ-independent context:
	// softmax over one score is exactly 1, so out = (x·wvᵀ)·woᵀ + b.
	x1 := tensor.Rand(rng, 0.5, 1, 1, dm)
	got1 := d.Exec(graph.Attrs{"heads": 1}, []*tensor.Tensor{x1, wqkv, wo, bias}, nil)
	xb := x1.Reshape(1, dm)
	want := tensor.AddInto(nil, tensor.MatMulInto(nil, tensor.MatMulInto(nil, xb, tensor.Transpose2DInto(nil, wv, nil), nil), tensor.Transpose2DInto(nil, wo, nil), nil), bias, nil)
	if !bitEqual(got1.Reshape(1, dm), want) {
		t.Fatalf("mha T=1 algebra mismatch: %g", tensor.MaxAbsDiff(got1.Reshape(1, dm), want))
	}
}

// TestExecOnArenaMatchesPlain runs every registered kind through Exec without
// an arena and then twice on one warm arena whose pooled buffers hold NaN.
// A kernel that reads a recycled buffer before writing it, or that computes
// differently when its output or scratch comes from the arena, shows as a
// bit difference.
func TestExecOnArenaMatchesPlain(t *testing.T) {
	cases := map[string]costCase{}
	for _, c := range execCases() {
		cases[c.kind] = c
	}
	rng := rand.New(rand.NewSource(23))
	var hits int64
	for _, kind := range Kinds() {
		c, ok := cases[kind]
		if !ok {
			t.Errorf("operator %q has no Exec case", kind)
			continue
		}
		d := MustLookup(kind)
		in := execInputs(rng, kind, c.base)
		want := d.Exec(c.attrs, in, nil)
		ar := tensor.NewArena()
		poisonArena(ar)
		for pass := 0; pass < 2; pass++ {
			got := d.Exec(c.attrs, in, ar)
			if !bitEqual(got, want) {
				t.Errorf("%s: arena pass %d differs from Exec without an arena: max |Δ| %g", kind, pass, tensor.MaxAbsDiff(got, want))
			}
			if !d.Alias {
				fill(got, nan32)
				ar.Release(got)
			}
		}
		hits += ar.Stats().Hits
	}
	if hits == 0 {
		t.Error("no Exec drew a recycled buffer from its arena")
	}
}

// execCases gives every registered kind one input-shape set: the base
// shapes of costCases, plus the elementwise and structural kinds that
// table exempts. The binary variants broadcast a row.
func execCases() []costCase {
	cases := costCases()
	for _, kind := range []string{"sigmoid", "tanh", "gelu", "exp", "sqrt"} {
		cases = append(cases, costCase{kind: kind, base: [][]int{{4, 16}}})
	}
	for _, kind := range []string{"sub", "mul", "div", "maximum"} {
		cases = append(cases, costCase{kind: kind, base: [][]int{{4, 16}, {16}}})
	}
	return append(cases,
		costCase{kind: "reshape", attrs: graph.Attrs{"shape": []int{8, -1}}, base: [][]int{{4, 16}}},
		costCase{kind: "flatten", base: [][]int{{2, 3, 4}}},
	)
}

// execInputs draws inputs of the given shapes in [-1, 1), then makes them
// legal where an op needs it: embedding ids index the table, and sqrt
// inputs and batch-norm variances lie in [0.5, 1.5).
func execInputs(rng *rand.Rand, kind string, shapes [][]int) []*tensor.Tensor {
	in := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		in[i] = tensor.Rand(rng, 1, s...)
	}
	positive := func(x *tensor.Tensor) {
		for i, v := range x.Data() {
			x.Data()[i] = float32(math.Abs(float64(v))) + 0.5
		}
	}
	switch kind {
	case "embedding":
		for i := range in[0].Data() {
			in[0].Data()[i] = float32(rng.Intn(shapes[1][0]))
		}
	case "sqrt":
		positive(in[0])
	case "batchnorm2d":
		positive(in[4])
	}
	return in
}

var nan32 = float32(math.NaN())

// poisonArena fills the arena's pools with NaN buffers of every size class
// up to 64 Ki elements, two per class.
func poisonArena(ar *tensor.Arena) {
	for n := 256; n <= 1<<16; n *= 2 {
		a, b := ar.NewNoZero(n), ar.NewNoZero(n)
		fill(a, nan32)
		fill(b, nan32)
		ar.Release(a)
		ar.Release(b)
	}
}

func fill(x *tensor.Tensor, v float32) {
	for i := range x.Data() {
		x.Data()[i] = v
	}
}

// bitEqual reports a and b of equal shape and equal bit patterns.
func bitEqual(a, b *tensor.Tensor) bool {
	if !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// mhaReference is multi-head self-attention composed from whole-tensor
// kernels, one batch row and head at a time: separate q, k and v
// projections, per-head column copies, scores, scale, softmax, context and
// the biased output projection.
func mhaReference(x, wq, wk, wv, wo, bias *tensor.Tensor, heads int) *tensor.Tensor {
	b, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	hd := d / heads
	sizes := make([]int, heads)
	for i := range sizes {
		sizes[i] = hd
	}
	scale := float32(1 / sqrtf(float64(hd)))
	out := tensor.New(b, t, d)
	for bi := 0; bi < b; bi++ {
		xb := tensor.FromSlice(x.Data()[bi*t*d:(bi+1)*t*d], t, d)
		qs := tensor.Split(tensor.LinearInto(nil, xb, wq, nil, nil), 1, sizes)
		ks := tensor.Split(tensor.LinearInto(nil, xb, wk, nil, nil), 1, sizes)
		vs := tensor.Split(tensor.LinearInto(nil, xb, wv, nil, nil), 1, sizes)
		ctx := make([]*tensor.Tensor, heads)
		for h := range ctx {
			scores := tensor.ScaleInto(nil, tensor.LinearInto(nil, qs[h], ks[h], nil, nil), scale, nil)
			ctx[h] = tensor.MatMulInto(nil, tensor.SoftmaxInto(nil, scores, nil), vs[h], nil)
		}
		proj := tensor.LinearInto(nil, tensor.ConcatInto(nil, 1, nil, ctx...), wo, bias, nil)
		copy(out.Data()[bi*t*d:(bi+1)*t*d], proj.Data())
	}
	return out
}

func TestBatchNormInfer(t *testing.T) {
	d := MustLookup("batchnorm2d")
	in := [][]int{{1, 3, 4, 4}, {3}, {3}, {3}, {3}}
	out, err := d.Infer(nil, in)
	if err != nil || !tensor.ShapeEq(out, []int{1, 3, 4, 4}) {
		t.Fatalf("batchnorm infer = %v, %v", out, err)
	}
	bad := [][]int{{1, 3, 4, 4}, {4}, {3}, {3}, {3}}
	if _, err := d.Infer(nil, bad); err == nil {
		t.Fatalf("batchnorm should reject mismatched params")
	}
}

func TestCosineSimilarityOp(t *testing.T) {
	d := MustLookup("cosine_similarity")
	out, err := d.Infer(nil, [][]int{{3, 8}, {3, 8}})
	if err != nil || !tensor.ShapeEq(out, []int{3, 1}) {
		t.Fatalf("cosine infer = %v, %v", out, err)
	}
	if _, err := d.Infer(nil, [][]int{{3, 8}, {3, 9}}); err == nil {
		t.Fatalf("cosine should reject mismatched shapes")
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{FLOPs: 10, Bytes: 20, Parallelism: 5, Launches: 1, SeqSteps: 1}
	b := Cost{FLOPs: 1, Bytes: 2, Parallelism: 50, Launches: 2, SeqSteps: 7}
	c := a.Add(b)
	if c.FLOPs != 11 || c.Bytes != 22 || c.Parallelism != 50 || c.Launches != 3 || c.SeqSteps != 7 {
		t.Fatalf("Cost.Add wrong: %+v", c)
	}
}

func TestElementwiseFlags(t *testing.T) {
	if !MustLookup("relu").Elementwise || MustLookup("relu").Anchor {
		t.Fatalf("relu flags wrong")
	}
	if MustLookup("dense").Elementwise || !MustLookup("dense").Anchor {
		t.Fatalf("dense flags wrong")
	}
	if !MustLookup("lstm").Anchor {
		t.Fatalf("lstm should be an anchor")
	}
}

func TestUnaryBinaryInferErrors(t *testing.T) {
	relu := MustLookup("relu")
	if _, err := relu.Infer(nil, [][]int{{1}, {1}}); err == nil {
		t.Fatalf("relu should reject 2 inputs")
	}
	add := MustLookup("add")
	if _, err := add.Infer(nil, [][]int{{2, 3}, {3, 2}}); err == nil {
		t.Fatalf("add should reject non-broadcastable shapes")
	}
	out, err := add.Infer(nil, [][]int{{2, 3}, {3}})
	if err != nil || !tensor.ShapeEq(out, []int{2, 3}) {
		t.Fatalf("add broadcast infer = %v, %v", out, err)
	}
}
