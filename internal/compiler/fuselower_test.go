package compiler

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// fuseLower fuses g and returns the kernel that publishes the graph's
// (single) output.
func fuseLower(t *testing.T, g *graph.Graph) *Kernel {
	t.Helper()
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	kernels := Fuse(g, true)
	out := g.Outputs()[0]
	for i := range kernels {
		if kernels[i].Output() == out {
			return &kernels[i]
		}
	}
	t.Fatalf("no kernel publishes the graph output")
	return nil
}

func denseBase(rng *rand.Rand, withBias bool) (*graph.Graph, graph.NodeID) {
	g := graph.New("fl")
	x := g.AddInput("x", 2, 8)
	w := g.AddConst("w", tensor.Rand(rng, 0.5, 6, 8))
	ins := []graph.NodeID{x, w}
	if withBias {
		ins = append(ins, g.AddConst("b", tensor.Rand(rng, 0.5, 6)))
	}
	d := g.Add("dense", "d", nil, ins...)
	return g, d
}

// tapeOps extracts the opcode sequence of a fused kernel's program.
func tapeOps(f *FusedGroup) []tensor.ChainOp {
	if f == nil {
		return nil
	}
	ops := make([]tensor.ChainOp, 0, f.Prog.Len())
	for _, in := range f.Prog.Instrs() {
		ops = append(ops, in.Op)
	}
	return ops
}

func opsEqual(got, want []tensor.ChainOp) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestLegacyLinearLowering pins how fusion lowers the dense epilogues the
// old fixed-function GEMM kernel supported ([dense][, add(·, bias[N])]
// [, relu|sigmoid]), and the variants that kernel's matcher rejected (the
// reject_* cases), all of which fuse.
func TestLegacyLinearLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))

	// A lone dense is a one-node group: it launches natively, no tape.
	t.Run("dense_alone", func(t *testing.T) {
		g, d := denseBase(rng, false)
		g.SetOutputs(d)
		k := fuseLower(t, g)
		if k.Fused != nil || len(k.Nodes) != 1 || k.Nodes[0] != d {
			t.Fatalf("lone dense = %v fused %+v, want an unlowered one-node kernel", k.Nodes, k.Fused)
		}
	})

	t.Run("dense_own_bias", func(t *testing.T) {
		g, d := denseBase(rng, true)
		g.SetOutputs(d)
		k := fuseLower(t, g)
		if k.Fused != nil || len(k.Nodes) != 1 || k.Nodes[0] != d {
			t.Fatalf("lone dense with bias = %v fused %+v, want an unlowered one-node kernel", k.Nodes, k.Fused)
		}
	})

	t.Run("dense_add_folds_bias", func(t *testing.T) {
		g, d := denseBase(rng, false)
		b := g.AddConst("b2", tensor.Rand(rng, 0.5, 6))
		a := g.Add("add", "a", nil, d, b)
		g.SetOutputs(a)
		k := fuseLower(t, g)
		f := k.Fused
		if f == nil || !opsEqual(tapeOps(f), []tensor.ChainOp{tensor.ChainAdd}) ||
			len(f.Args) != 1 || f.Args[0] != b {
			t.Fatalf("lowering = %+v, want single add against arg %d", f, b)
		}
	})

	t.Run("dense_relu", func(t *testing.T) {
		g, d := denseBase(rng, true)
		r := g.Add("relu", "r", nil, d)
		g.SetOutputs(r)
		k := fuseLower(t, g)
		f := k.Fused
		if f == nil || len(f.LeadIns) != 3 || !opsEqual(tapeOps(f), []tensor.ChainOp{tensor.ChainReLU}) {
			t.Fatalf("lowering = %+v, want bias from the dense operand + relu tape", f)
		}
	})

	t.Run("dense_add_sigmoid", func(t *testing.T) {
		g, d := denseBase(rng, false)
		b := g.AddConst("b2", tensor.Rand(rng, 0.5, 6))
		a := g.Add("add", "a", nil, d, b)
		s := g.Add("sigmoid", "s", nil, a)
		g.SetOutputs(s)
		k := fuseLower(t, g)
		f := k.Fused
		if f == nil || !opsEqual(tapeOps(f), []tensor.ChainOp{tensor.ChainAdd, tensor.ChainSigmoid}) {
			t.Fatalf("lowering = %+v, want add+sigmoid tape", f)
		}
	})

	t.Run("reject_double_bias", func(t *testing.T) {
		g, d := denseBase(rng, true)
		b := g.AddConst("b2", tensor.Rand(rng, 0.5, 6))
		a := g.Add("add", "a", nil, d, b)
		g.SetOutputs(a)
		if k := fuseLower(t, g); k.Fused == nil {
			t.Fatal("fusion should lower dense-with-bias + add")
		}
	})

	t.Run("reject_swapped_add_operands", func(t *testing.T) {
		g, d := denseBase(rng, false)
		b := g.AddConst("b2", tensor.Rand(rng, 0.5, 2, 6))
		a := g.Add("add", "a", nil, b, d) // add(other, tail): not canonical order
		g.SetOutputs(a)
		k := fuseLower(t, g)
		f := k.Fused
		if f == nil || f.Prog.Len() != 1 || !f.Prog.Instrs()[0].Rev {
			t.Fatalf("lowering of swapped add = %+v, want Rev instr", f)
		}
	})

	t.Run("reject_scalar_bias", func(t *testing.T) {
		g, d := denseBase(rng, false)
		b := g.AddConst("b2", tensor.Rand(rng, 0.5, 1)) // broadcasts, width ≠ 6
		a := g.Add("add", "a", nil, d, b)
		g.SetOutputs(a)
		if k := fuseLower(t, g); k.Fused == nil {
			t.Fatal("fusion should lower a scalar-broadcast add")
		}
	})

	t.Run("reject_unsupported_activation", func(t *testing.T) {
		g, d := denseBase(rng, true)
		r := g.Add("tanh", "r", nil, d)
		g.SetOutputs(r)
		k := fuseLower(t, g)
		if !opsEqual(tapeOps(k.Fused), []tensor.ChainOp{tensor.ChainTanh}) {
			t.Fatalf("dense+tanh = %+v, want tanh tape", k.Fused)
		}
	})

	t.Run("reject_trailing_op_after_activation", func(t *testing.T) {
		g, d := denseBase(rng, true)
		r := g.Add("relu", "r", nil, d)
		s := g.Add("exp", "s", nil, r)
		g.SetOutputs(s)
		k := fuseLower(t, g)
		if !opsEqual(tapeOps(k.Fused), []tensor.ChainOp{tensor.ChainReLU, tensor.ChainExp}) {
			t.Fatalf("dense+relu+exp = %+v, want relu+exp tape", k.Fused)
		}
	})

	t.Run("reject_non_dense_leader", func(t *testing.T) {
		g := graph.New("fl")
		x := g.AddInput("x", 2, 8)
		r := g.Add("relu", "r", nil, x)
		e := g.Add("exp", "e", nil, r)
		g.SetOutputs(e)
		// Fusion lowers standalone elementwise chains too.
		k := fuseLower(t, g)
		if !opsEqual(tapeOps(k.Fused), []tensor.ChainOp{tensor.ChainExp}) {
			t.Fatalf("standalone chain = %+v, want exp tape behind relu lead", k.Fused)
		}
	})
}

// unconstrainedOutputs compiles g with fusion off and on and demands
// bit-identical outputs, returning the fused module for further assertions.
func unconstrainedOutputs(t *testing.T, g *graph.Graph, inputs map[string]*tensor.Tensor) *Module {
	t.Helper()
	var want []*tensor.Tensor
	var unc *Module
	for _, on := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Fuse = on
		m, err := Compile(g, opt)
		if err != nil {
			t.Fatalf("fuse=%v: %v", on, err)
		}
		plain, err := m.Execute(inputs)
		if err != nil {
			t.Fatalf("fuse=%v: %v", on, err)
		}
		ar := tensor.NewArena()
		for round := 0; round < 2; round++ {
			got, err := m.ExecuteArena(inputs, ar)
			if err != nil {
				t.Fatalf("fuse=%v round %d: %v", on, round, err)
			}
			for i := range got {
				assertBitEqual(t, got[i], plain[i], "fuse=%v round %d output %d: arena vs plain", on, round, i)
			}
		}
		if !on {
			want = plain
			continue
		}
		for i := range plain {
			assertBitEqual(t, plain[i], want[i], "output %d: fused vs unfused", i)
		}
		unc = m
	}
	return unc
}

func assertBitEqual(t *testing.T, got, want *tensor.Tensor, format string, args ...any) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf(format+": size %d vs %d", append(args, len(gd), len(wd))...)
	}
	for j := range wd {
		if math.Float32bits(gd[j]) != math.Float32bits(wd[j]) {
			t.Fatalf(format+": element %d = %v, want %v (bit-exact)", append(args, j, gd[j], wd[j])...)
		}
	}
}

// TestUnconstrainedResidualFork exercises the tape's register path: a
// dense feeds relu and sigmoid branches that re-join through an add, all
// inside one kernel.
func TestUnconstrainedResidualFork(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.New("fork")
	x := g.AddInput("x", 3, 8)
	w := g.AddConst("w", tensor.Rand(rng, 0.5, 6, 8))
	d := g.Add("dense", "d", nil, x, w)
	r := g.Add("relu", "r", nil, d)
	s := g.Add("sigmoid", "s", nil, d)
	a := g.Add("add", "a", nil, r, s)
	g.SetOutputs(a)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	m := unconstrainedOutputs(t, g, map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 3, 8)})
	if len(m.Kernels) != 1 || m.Kernels[0].Fused == nil {
		t.Fatalf("fork should fuse to one kernel: %d kernels, fused=%v", len(m.Kernels), m.Kernels[0].Fused != nil)
	}
	f := m.Kernels[0].Fused
	if f.Prog.NumRegs() == 0 {
		t.Fatalf("fork lowering used no registers: %+v", f)
	}
	if len(f.Emits) != 0 {
		t.Fatalf("private fork intermediates must not be emitted: %v", f.Emits)
	}
}

// TestUnconstrainedSelfBinary covers the SrcCur path: mul(v, v) squares
// the stream without any register or argument.
func TestUnconstrainedSelfBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := graph.New("sq")
	x := g.AddInput("x", 4, 5)
	r := g.Add("relu", "r", nil, x)
	q := g.Add("mul", "q", nil, r, r)
	g.SetOutputs(q)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	m := unconstrainedOutputs(t, g, map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 4, 5)})
	f := m.Kernels[0].Fused
	if f == nil || f.Prog.Len() != 1 || f.Prog.Instrs()[0].Src != tensor.SrcCur {
		t.Fatalf("self-binary lowering = %+v, want one SrcCur mul", f)
	}
}

// TestUnconstrainedEmitsSharedIntermediate: a group value read by a kernel
// outside the group must be materialized exactly once via an Emit slot and
// released only after its outside consumer has run.
func TestUnconstrainedEmitsSharedIntermediate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.New("emit")
	x := g.AddInput("x", 3, 8)
	w := g.AddConst("w", tensor.Rand(rng, 0.5, 8, 8))
	d := g.Add("dense", "d", nil, x, w)
	r := g.Add("relu", "r", nil, d)
	t2 := g.Add("tanh", "t2", nil, r)
	// Outside consumer of r: a second dense that cannot join the group.
	w2 := g.AddConst("w2", tensor.Rand(rng, 0.5, 4, 8))
	d2 := g.Add("dense", "d2", nil, r, w2)
	s := g.Add("sigmoid", "s", nil, d2)
	g.SetOutputs(t2, s)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	m := unconstrainedOutputs(t, g, map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 3, 8)})
	var emitted bool
	for i := range m.Kernels {
		if f := m.Kernels[i].Fused; f != nil {
			for _, e := range f.Emits {
				if e == r {
					emitted = true
				}
			}
		}
	}
	if !emitted {
		t.Fatal("shared intermediate r must be materialized through an Emit slot")
	}
}

// TestUnconstrainedStreamReturnsThroughRegister: after a detour through
// the lead's square, the stream returns to the lead, which was saved into
// a register and comes back through a ChainLoad.
func TestUnconstrainedStreamReturnsThroughRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := graph.New("rc")
	x := g.AddInput("x", 3, 6)
	w := g.AddConst("w", tensor.Rand(rng, 0.5, 6, 6))
	kc := g.AddConst("k", tensor.Rand(rng, 0.5, 6))
	d := g.Add("dense", "d", nil, x, w)
	c := g.Add("mul", "c", nil, d, d) // cheap square of the lead
	t2 := g.Add("tanh", "t2", nil, d) // stream must come back through d
	fa := g.Add("add", "f", nil, c, kc)
	z := g.Add("maximum", "z", nil, fa, t2)
	g.SetOutputs(z)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	m := unconstrainedOutputs(t, g, map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 3, 6)})
	if len(m.Kernels) != 1 || m.Kernels[0].Fused == nil {
		t.Fatalf("graph should lower to one fused kernel: %d kernels", len(m.Kernels))
	}
	if ops := tapeOps(m.Kernels[0].Fused); !slices.Contains(ops, tensor.ChainLoad) {
		t.Fatalf("tape %v has no ChainLoad; the stream must return to the lead through its register", ops)
	}
}

// TestUnconstrainedSpillFallsBack builds a group needing more live values
// than maxChainRegs and checks it degrades to op-by-op dispatch (Fused ==
// nil) with outputs still correct.
func TestUnconstrainedSpillFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	g := graph.New("spill")
	x := g.AddInput("x", 2, 4)
	// Build maxChainRegs+2 expensive branches off the same root, then fold
	// them together pairwise; every branch value must be live at the join.
	root := g.Add("sigmoid", "root", nil, x)
	var branches []graph.NodeID
	for i := 0; i < maxChainRegs+2; i++ {
		branches = append(branches, g.Add("tanh", mustName("b", i), nil, root))
	}
	acc := branches[0]
	for i := 1; i < len(branches); i++ {
		acc = g.Add("add", mustName("acc", i), nil, acc, branches[i])
	}
	g.SetOutputs(acc)
	if err := InferShapes(g); err != nil {
		t.Fatal(err)
	}
	m := unconstrainedOutputs(t, g, map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, 2, 4)})
	// The whole graph is one group; whether it lowers depends on register
	// pressure. What matters: execution stays correct (checked above) and
	// an unlowered kernel reports per-op launches, not one.
	if len(m.Kernels) != 1 {
		t.Fatalf("expected a single group, got %d kernels", len(m.Kernels))
	}
}

func mustName(prefix string, i int) string {
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
