package compiler

import (
	"math/rand"
	"testing"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// mlpGraph builds x -> dense(w1,b1) -> relu -> dense(w2,b2) -> relu -> out.
func mlpGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New("mlp")
	x := g.AddInput("x", 1, 8)
	w1 := g.AddConst("w1", tensor.Rand(rng, 0.5, 16, 8))
	b1 := g.AddConst("b1", tensor.Rand(rng, 0.5, 16))
	w2 := g.AddConst("w2", tensor.Rand(rng, 0.5, 4, 16))
	b2 := g.AddConst("b2", tensor.Rand(rng, 0.5, 4))
	d1 := g.Add("dense", "d1", nil, x, w1, b1)
	r1 := g.Add("relu", "r1", nil, d1)
	d2 := g.Add("dense", "d2", nil, r1, w2, b2)
	r2 := g.Add("relu", "r2", nil, d2)
	g.SetOutputs(r2)
	return g
}

func TestInferShapes(t *testing.T) {
	g := mlpGraph(rand.New(rand.NewSource(1)))
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEq(g.NodeByName("d1").Shape, []int{1, 16}) {
		t.Fatalf("d1 shape = %v", g.NodeByName("d1").Shape)
	}
	if !tensor.ShapeEq(g.NodeByName("r2").Shape, []int{1, 4}) {
		t.Fatalf("r2 shape = %v", g.NodeByName("r2").Shape)
	}
}

func TestInferShapesUnknownOp(t *testing.T) {
	g := graph.New("g")
	x := g.AddInput("x", 1)
	g.Add("frobnicate", "f", nil, x)
	if err := InferShapes(g); err == nil {
		t.Fatalf("expected unknown-op error")
	}
}

func TestInferShapesMissingInputShape(t *testing.T) {
	g := graph.New("g")
	x := g.Add(graph.OpInput, "x", nil) // bypasses AddInput → no shape
	g.Add("relu", "r", nil, x)
	if err := InferShapes(g); err == nil {
		t.Fatalf("expected missing-shape error")
	}
}

func TestDCEDropsDeadNodes(t *testing.T) {
	g := mlpGraph(rand.New(rand.NewSource(2)))
	dead := g.Add("relu", "dead", nil, g.NodeByName("d1").ID)
	_ = dead
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	out := DCE(g)
	if out.NodeByName("dead") != nil {
		t.Fatalf("DCE kept dead node")
	}
	if out.NodeByName("r2") == nil {
		t.Fatalf("DCE dropped live node")
	}
}

func TestConstantFold(t *testing.T) {
	g := graph.New("g")
	a := g.AddConst("a", tensor.Full(2, 1, 4))
	b := g.AddConst("b", tensor.Full(3, 1, 4))
	s := g.Add("add", "s", nil, a, b)
	x := g.AddInput("x", 1, 4)
	y := g.Add("mul", "y", nil, x, s)
	g.SetOutputs(y)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	folded, err := ConstantFold(g)
	if err != nil {
		t.Fatal(err)
	}
	sn := folded.NodeByName("s")
	if sn == nil || !sn.IsConst() {
		t.Fatalf("add of consts not folded")
	}
	if sn.Value.At(0, 0) != 5 {
		t.Fatalf("folded value = %v, want 5", sn.Value.At(0, 0))
	}
	if !folded.NodeByName("y").IsConst() == false {
		// y depends on a runtime input and must not fold
		t.Fatalf("y must stay an op")
	}
}

func TestCSEMergesDuplicates(t *testing.T) {
	g := graph.New("g")
	x := g.AddInput("x", 1, 4)
	r1 := g.Add("relu", "r1", nil, x)
	r2 := g.Add("relu", "r2", nil, x)
	s := g.Add("add", "s", nil, r1, r2)
	g.SetOutputs(s)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	out := CSE(g)
	// One relu should survive; s should consume it twice.
	count := 0
	for _, n := range out.Nodes() {
		if n.Op == "relu" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("CSE left %d relus, want 1", count)
	}
	sn := out.NodeByName("s")
	if sn.Inputs[0] != sn.Inputs[1] {
		t.Fatalf("s inputs not merged: %v", sn.Inputs)
	}
}

func TestCSERespectsAttrs(t *testing.T) {
	g := graph.New("g")
	x := g.AddInput("x", 2, 6)
	a := g.Add("reshape", "a", graph.Attrs{"shape": []int{3, 4}}, x)
	b := g.Add("reshape", "b", graph.Attrs{"shape": []int{4, 3}}, x)
	s := g.Add("matmul", "s", nil, a, b)
	g.SetOutputs(s)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	out := CSE(g)
	count := 0
	for _, n := range out.Nodes() {
		if n.Op == "reshape" {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("CSE merged reshapes with different attrs")
	}
}

func TestSimplifyAddZero(t *testing.T) {
	g := graph.New("g")
	x := g.AddInput("x", 1, 4)
	zero := g.AddConst("zero", tensor.New(4))
	a := g.Add("add", "a", nil, x, zero)
	r := g.Add("relu", "r", nil, a)
	g.SetOutputs(r)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	out := Simplify(g)
	if out.NodeByName("a") != nil {
		t.Fatalf("x+0 not simplified away")
	}
	rn := out.NodeByName("r")
	if !out.Node(rn.Inputs[0]).IsInput() {
		t.Fatalf("relu should consume x directly")
	}
}

func TestSimplifyMulOne(t *testing.T) {
	g := graph.New("g")
	x := g.AddInput("x", 1, 4)
	one := g.AddConst("one", tensor.Ones(4))
	mul := g.Add("mul", "m", nil, x, one)
	g.SetOutputs(mul)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	out := Simplify(g)
	if out.NodeByName("m") != nil {
		t.Fatalf("x*1 not simplified")
	}
}

func TestSimplifyIdentityReshape(t *testing.T) {
	g := graph.New("g")
	x := g.AddInput("x", 2, 3)
	rs := g.Add("reshape", "rs", graph.Attrs{"shape": []int{2, 3}}, x)
	r := g.Add("relu", "r", nil, rs)
	g.SetOutputs(r)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	out := Simplify(g)
	if out.NodeByName("rs") != nil {
		t.Fatalf("identity reshape survived")
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := mlpGraph(rng)
	x := tensor.Rand(rng, 1, 1, 8)

	plain, err := Compile(mlpCopy(t, g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	optimized, err := Compile(mlpCopy(t, g), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Execute(map[string]*tensor.Tensor{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	b, err := optimized.Execute(map[string]*tensor.Tensor{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(a[0], b[0], 1e-5, 1e-5) {
		t.Fatalf("optimization changed semantics: diff %g", tensor.MaxAbsDiff(a[0], b[0]))
	}
}

// mlpCopy recompiles from a fresh graph to avoid shared-shape aliasing
// between compilations in tests.
func mlpCopy(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	return g
}

func TestFuseReducesKernels(t *testing.T) {
	g := mlpGraph(rand.New(rand.NewSource(4)))
	unfused, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Compile(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if unfused.KernelCount() != 4 {
		t.Fatalf("unfused kernels = %d, want 4", unfused.KernelCount())
	}
	if fused.KernelCount() != 2 {
		t.Fatalf("fused kernels = %d, want 2 (dense+relu ×2)", fused.KernelCount())
	}
	for _, k := range fused.Kernels {
		if len(k.Nodes) != 2 {
			t.Fatalf("fused kernel %s has %d nodes, want 2", k.Name, len(k.Nodes))
		}
	}
}

// TestFuseStopsAtDeclaredOutput: a declared output does not end a fusion
// group, but the group must still publish it.
func TestFuseStopsAtDeclaredOutput(t *testing.T) {
	g := graph.New("g")
	x := g.AddInput("x", 1, 8)
	w := g.AddConst("w", tensor.Ones(8, 8))
	d := g.Add("dense", "d", nil, x, w)
	r := g.Add("relu", "r", nil, d)
	g.SetOutputs(d, r) // d itself is a declared output
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	// Fusion keeps d inside the group but must materialize it through an
	// Emit slot since it is a declared output.
	kernels := Fuse(g, true)
	if len(kernels) != 1 {
		t.Fatalf("fusion should absorb the declared output: %d kernels", len(kernels))
	}
	f := kernels[0].Fused
	if f == nil || len(f.Emits) != 1 || f.Emits[0] != d {
		t.Fatalf("declared-output intermediate must be emitted: %+v", f)
	}
}

func TestFuseCostAccounting(t *testing.T) {
	g := mlpGraph(rand.New(rand.NewSource(5)))
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	fused := Fuse(g, true)
	unfused := Fuse(g, false)
	var fusedLaunches, unfusedLaunches int
	for _, k := range fused {
		fusedLaunches += k.Cost.Launches
	}
	for _, k := range unfused {
		unfusedLaunches += k.Cost.Launches
	}
	if fusedLaunches >= unfusedLaunches {
		t.Fatalf("fusion must reduce launches: %d vs %d", fusedLaunches, unfusedLaunches)
	}
	// FLOPs must be preserved by fusion.
	var ff, uf float64
	for _, k := range fused {
		ff += k.Cost.FLOPs
	}
	for _, k := range unfused {
		uf += k.Cost.FLOPs
	}
	if ff != uf {
		t.Fatalf("fusion changed FLOPs: %v vs %v", ff, uf)
	}
}

func TestModuleExecuteValidation(t *testing.T) {
	g := mlpGraph(rand.New(rand.NewSource(6)))
	m, err := Compile(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(map[string]*tensor.Tensor{}); err == nil {
		t.Fatalf("expected missing-input error")
	}
	if _, err := m.Execute(map[string]*tensor.Tensor{"x": tensor.New(2, 8)}); err == nil {
		t.Fatalf("expected shape-mismatch error")
	}
}

func TestModuleTotalCost(t *testing.T) {
	g := mlpGraph(rand.New(rand.NewSource(7)))
	m, err := Compile(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := m.TotalCost()
	// Two dense layers at batch 1: 2*(8*16 + 16*4) FLOPs, plus relu flops.
	if c.FLOPs < 2*(8*16+16*4) {
		t.Fatalf("TotalCost.FLOPs = %v too small", c.FLOPs)
	}
}

func TestNodeCostStructuralZero(t *testing.T) {
	g := graph.New("g")
	x := g.AddInput("x", 1, 4)
	c := NodeCost(g, x)
	if c.FLOPs != 0 || c.Launches != 0 {
		t.Fatalf("input cost should be zero: %+v", c)
	}
}
