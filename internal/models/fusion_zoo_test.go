package models

import (
	"testing"

	"duet/internal/compiler"
	"duet/internal/tensor"
)

// zooFusionCases is SmallZoo, so the fusion gate can run real inference
// fused and unfused.
func zooFusionCases(t *testing.T) []ZooCase {
	t.Helper()
	cases, err := SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestZooUnconstrainedFusionGate is the release gate for the fusion pass:
// on every zoo model it must strictly reduce kernel launches versus one
// kernel per node, while fused and unfused outputs stay bit-identical.
func TestZooUnconstrainedFusionGate(t *testing.T) {
	for _, c := range zooFusionCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			var want []*tensor.Tensor
			var launches [2]int
			for i, on := range []bool{false, true} {
				opt := compiler.DefaultOptions()
				opt.Fuse = on
				m, err := compiler.Compile(c.Graph, opt)
				if err != nil {
					t.Fatalf("fuse=%v: %v", on, err)
				}
				launches[i] = m.LaunchCount()
				outs, err := m.Execute(c.Inputs)
				if err != nil {
					t.Fatalf("fuse=%v: %v", on, err)
				}
				if want == nil {
					want = outs
					continue
				}
				if len(outs) != len(want) {
					t.Fatalf("fused: %d outputs, want %d", len(outs), len(want))
				}
				for i := range outs {
					if !tensor.AllClose(outs[i], want[i], 0, 0) {
						t.Fatalf("fused output %d differs from unfused (max |Δ| %g)",
							i, tensor.MaxAbsDiff(outs[i], want[i]))
					}
				}
			}
			if off, unc := launches[0], launches[1]; unc >= off {
				t.Fatalf("fusion must strictly reduce launches: off=%d fused=%d", off, unc)
			}
		})
	}
}
