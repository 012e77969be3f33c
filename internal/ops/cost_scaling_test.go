package ops

import (
	"testing"

	"duet/internal/graph"
)

// costCase gives an operator a base input-shape set and a scaled-up set;
// the cost model must report strictly more FLOPs-or-bytes work for the
// scaled set. This guards the analytic cost formulas against regressions:
// a mis-scaled cost silently skews every scheduling decision.
type costCase struct {
	kind   string
	attrs  graph.Attrs
	base   [][]int
	scaled [][]int
}

func costCases() []costCase {
	return []costCase{
		{"dense", nil, [][]int{{1, 64}, {64, 64}}, [][]int{{1, 128}, {128, 128}}},
		{"matmul", nil, [][]int{{8, 8}, {8, 8}}, [][]int{{16, 16}, {16, 16}}},
		{"batch_matmul", nil, [][]int{{2, 4, 4}, {2, 4, 4}}, [][]int{{4, 8, 8}, {4, 8, 8}}},
		{"conv2d", graph.Attrs{"stride": 1, "pad": 1}, [][]int{{1, 8, 16, 16}, {8, 8, 3, 3}}, [][]int{{1, 16, 32, 32}, {16, 16, 3, 3}}},
		{"maxpool2d", graph.Attrs{"kernel": 2, "stride": 2}, [][]int{{1, 4, 8, 8}}, [][]int{{1, 8, 16, 16}}},
		{"avgpool2d", graph.Attrs{"kernel": 2, "stride": 2}, [][]int{{1, 4, 8, 8}}, [][]int{{1, 8, 16, 16}}},
		{"global_avg_pool", nil, [][]int{{1, 4, 8, 8}}, [][]int{{1, 8, 16, 16}}},
		{"batchnorm2d", nil, [][]int{{1, 4, 8, 8}, {4}, {4}, {4}, {4}}, [][]int{{1, 8, 16, 16}, {8}, {8}, {8}, {8}}},
		{"lstm", graph.Attrs{}, [][]int{{1, 10, 16}, {64, 16}, {64, 16}, {64}}, [][]int{{1, 20, 32}, {128, 32}, {128, 32}, {128}}},
		{"gru", graph.Attrs{}, [][]int{{1, 10, 16}, {48, 16}, {48, 16}, {48}}, [][]int{{1, 20, 32}, {96, 32}, {96, 32}, {96}}},
		{"mha", graph.Attrs{"heads": 2}, [][]int{{1, 8, 16}, {48, 16}, {16, 16}, {16}}, [][]int{{1, 16, 32}, {96, 32}, {32, 32}, {32}}},
		{"softmax", nil, [][]int{{4, 16}}, [][]int{{8, 32}}},
		{"layernorm", nil, [][]int{{4, 16}, {16}, {16}}, [][]int{{8, 32}, {32}, {32}}},
		{"relu", nil, [][]int{{4, 16}}, [][]int{{8, 32}}},
		{"add", nil, [][]int{{4, 16}, {4, 16}}, [][]int{{8, 32}, {8, 32}}},
		{"embedding", nil, [][]int{{1, 8}, {100, 16}}, [][]int{{1, 16}, {100, 32}}},
		{"concat", graph.Attrs{"axis": 1}, [][]int{{1, 8}, {1, 8}}, [][]int{{1, 16}, {1, 16}}},
		{"cosine_similarity", nil, [][]int{{1, 16}, {1, 16}}, [][]int{{2, 32}, {2, 32}}},
		{"reverse_time", nil, [][]int{{1, 8, 4}}, [][]int{{1, 16, 8}}},
		{"transpose", nil, [][]int{{4, 8}}, [][]int{{8, 16}}},
	}
}

func TestCostScalesWithProblemSize(t *testing.T) {
	for _, c := range costCases() {
		d := MustLookup(c.kind)
		baseOut, err := d.Infer(c.attrs, c.base)
		if err != nil {
			t.Fatalf("%s base infer: %v", c.kind, err)
		}
		scaledOut, err := d.Infer(c.attrs, c.scaled)
		if err != nil {
			t.Fatalf("%s scaled infer: %v", c.kind, err)
		}
		cb := d.Cost(c.attrs, c.base, baseOut)
		cs := d.Cost(c.attrs, c.scaled, scaledOut)
		workB := cb.FLOPs + cb.Bytes
		workS := cs.FLOPs + cs.Bytes
		if workS <= workB {
			t.Errorf("%s: scaled work %v not greater than base %v", c.kind, workS, workB)
		}
		if cs.Parallelism < cb.Parallelism {
			t.Errorf("%s: scaled parallelism %v below base %v", c.kind, cs.Parallelism, cb.Parallelism)
		}
		if cb.SeqSteps < 1 || cs.SeqSteps < 1 {
			t.Errorf("%s: SeqSteps must be >= 1", c.kind)
		}
	}
}

func TestCostCasesCoverAllComputeKinds(t *testing.T) {
	// Every registered kind with a nontrivial cost must appear in the
	// scaling table, so new operators cannot dodge the guard. Structural
	// no-cost ops are exempt.
	exempt := map[string]bool{
		"reshape": true, "flatten": true, // metadata-only
		// elementwise variants covered representatively by relu/add
		"sigmoid": true, "tanh": true, "gelu": true, "exp": true, "sqrt": true,
		"sub": true, "mul": true, "div": true, "maximum": true,
	}
	covered := map[string]bool{}
	for _, c := range costCases() {
		covered[c.kind] = true
	}
	for _, kind := range Kinds() {
		if exempt[kind] || covered[kind] {
			continue
		}
		t.Errorf("operator %q missing from the cost-scaling table", kind)
	}
}
