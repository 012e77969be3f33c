package models

import (
	"testing"

	"duet/internal/compiler"
	"duet/internal/tensor"
)

// zooFusionCases is SmallZoo, so the fusion gate can run real inference per
// fusion level.
func zooFusionCases(t *testing.T) []ZooCase {
	t.Helper()
	cases, err := SmallZoo()
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestZooUnconstrainedFusionGate is the release gate for the unconstrained
// fusion pass: on every zoo model it must strictly reduce kernel launches
// versus the legacy dense-epilogue matcher, while all three fusion levels
// produce bit-identical outputs.
func TestZooUnconstrainedFusionGate(t *testing.T) {
	levels := []compiler.FusionLevel{compiler.FusionOff, compiler.FusionLegacy, compiler.FusionUnconstrained}
	for _, c := range zooFusionCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			var want []*tensor.Tensor
			launches := make([]int, len(levels))
			for li, level := range levels {
				opt := compiler.DefaultOptions()
				opt.Fusion = level
				m, err := compiler.Compile(c.Graph, opt)
				if err != nil {
					t.Fatalf("%v: %v", level, err)
				}
				launches[li] = m.LaunchCount()
				outs, err := m.Execute(c.Inputs)
				if err != nil {
					t.Fatalf("%v: %v", level, err)
				}
				if want == nil {
					want = outs
					continue
				}
				if len(outs) != len(want) {
					t.Fatalf("%v: %d outputs, want %d", level, len(outs), len(want))
				}
				for i := range outs {
					if !tensor.AllClose(outs[i], want[i], 0, 0) {
						t.Fatalf("%v output %d differs from FusionOff (max |Δ| %g)",
							level, i, tensor.MaxAbsDiff(outs[i], want[i]))
					}
				}
			}
			off, legacy, unc := launches[0], launches[1], launches[2]
			if !(unc < legacy && legacy <= off) {
				t.Fatalf("launch counts must strictly improve: off=%d legacy=%d unconstrained=%d", off, legacy, unc)
			}
		})
	}
}
