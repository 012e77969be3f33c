package compiler

import (
	"math"
	"math/rand"
	"testing"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// randomFusionGraph decodes the fuzz payload into a connected graph over a
// fixed [3,6] stream shape. Byte pairs select (operator, operands): unary
// and binary chain ops, broadcast row/scalar constants, self-binaries,
// dense leads, and extra declared outputs all arise from the byte stream,
// and operand reuse creates the multi-consumer intermediates the tape
// builder holds in registers or emits.
func randomFusionGraph(t *testing.T, data []byte) (*graph.Graph, map[string]*tensor.Tensor) {
	t.Helper()
	const m, n = 3, 6
	rng := rand.New(rand.NewSource(7))
	g := graph.New("fuzz-fusion")
	x := g.AddInput("x", m, n)
	w := g.AddConst("w", tensor.Rand(rng, 1, n, n))
	row := g.AddConst("row", tensor.Rand(rng, 1, n))
	scal := g.AddConst("scal", tensor.Rand(rng, 1, 1))

	unary := []string{"relu", "sigmoid", "tanh", "gelu", "exp", "sqrt"}
	binary := []string{"add", "sub", "mul", "div", "maximum"}
	vals := []graph.NodeID{x}
	var extra []graph.NodeID
	steps := len(data) / 2
	if steps > 24 {
		steps = 24
	}
	for i := 0; i < steps; i++ {
		op, sel := int(data[2*i]), int(data[2*i+1])
		pick := vals[sel%len(vals)]
		name := mustName("f", i)
		switch kind := op % 13; {
		case kind < 6:
			vals = append(vals, g.Add(unary[kind], name, nil, pick))
		case kind < 11:
			var second graph.NodeID
			switch (op / 13) % 4 {
			case 0:
				second = vals[(sel/7)%len(vals)]
			case 1:
				second = row
			case 2:
				second = scal
			default:
				second = pick // self-binary exercises SrcCur
			}
			vals = append(vals, g.Add(binary[kind-6], name, nil, pick, second))
		case kind == 11:
			vals = append(vals, g.Add("dense", name, nil, pick, w))
		default:
			if node := g.Node(pick); !node.IsInput() && !node.IsConst() {
				extra = append(extra, pick) // declare a mid-chain output
			}
		}
	}
	if len(vals) == 1 {
		vals = append(vals, g.Add("relu", "tail", nil, x))
	}
	tail := vals[len(vals)-1]
	outs := []graph.NodeID{tail}
	seen := map[graph.NodeID]bool{tail: true}
	for _, e := range extra {
		if !seen[e] {
			seen[e] = true
			outs = append(outs, e)
		}
	}
	g.SetOutputs(outs...)
	if err := InferShapes(g); err != nil {
		t.Fatalf("shape inference: %v", err)
	}
	return g, map[string]*tensor.Tensor{"x": tensor.Rand(rng, 1, m, n)}
}

// FuzzFusionEquivalence drives random elementwise/dense graphs through
// fusion off and on and demands (a) bit-identical outputs from Execute and
// two warm ExecuteArena rounds in both settings, and (b) the FLOP identity:
// the fused plan's total FLOPs equal the unfused total.
func FuzzFusionEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 6, 2})                                                // short unary/binary chain
	f.Add([]byte{11, 0, 0, 1, 19, 1, 7, 3, 45, 2, 12, 1})                          // dense lead, broadcast adds, declared output
	f.Add([]byte{1, 0, 6, 1, 8, 1, 2, 2, 47, 3, 10, 2, 9, 4})                      // fork with reused intermediates
	f.Add([]byte{11, 0, 8, 1, 3, 2, 7, 2, 21, 3, 34, 4, 12, 2, 6, 5, 11, 5, 0, 6}) // deep mixed graph
	f.Fuzz(func(t *testing.T, data []byte) {
		g, inputs := randomFusionGraph(t, data)
		unconstrainedOutputs(t, g, inputs)

		offF := fuseFLOPs(Fuse(g, false))
		uncF := fuseFLOPs(Fuse(g, true))
		if diff := math.Abs(uncF - offF); diff > 1e-6*(1+offF) {
			t.Fatalf("FLOP identity broken: fused %v != off %v", uncF, offF)
		}
	})
}

func fuseFLOPs(ks []Kernel) float64 {
	var total float64
	for _, k := range ks {
		total += k.Cost.FLOPs
	}
	return total
}
