package compiler

import (
	"duet/internal/device"
	"duet/internal/graph"
	"duet/internal/ops"
)

// Variant is one low-level schedule choice for a kernel — the
// hardware-dependent optimization layer of the compilation pipeline
// (Fig. 1: tiling size, vectorization, algorithm selection). A variant
// rescales the kernel's cost descriptor; the numerics of execution are
// unchanged (the host engine computes the same values), only the modelled
// time differs, exactly as TVM's schedule choices change performance but
// not semantics.
type Variant struct {
	Name string
	// FLOPsScale rescales arithmetic work (algorithmic substitution, e.g.
	// Winograd convolution).
	FLOPsScale float64
	// BytesScale rescales memory traffic (tiling/reuse quality).
	BytesScale float64
	// ParallelismScale rescales exposed parallelism (block granularity).
	ParallelismScale float64
}

// defaultVariant leaves the cost untouched.
var defaultVariant = Variant{Name: "default", FLOPsScale: 1, BytesScale: 1, ParallelismScale: 1}

// Apply returns the cost under this variant.
func (v Variant) Apply(c ops.Cost) ops.Cost {
	c.FLOPs *= v.FLOPsScale
	c.Bytes *= v.BytesScale
	c.Parallelism *= v.ParallelismScale
	return c
}

// variantsFor enumerates the legal schedule variants of a kernel. The
// leader op decides the family. Recurrent kernels (SeqSteps > 1) only get
// the default schedule: cross-timestep optimizations such as persistent
// kernels were not available in the modelled compiler generation — which
// is precisely why RNNs stay slow on the GPU (§III-B).
func variantsFor(g *graph.Graph, k *Kernel) []Variant {
	out := []Variant{defaultVariant}
	if k.Cost.SeqSteps > 1 {
		return out
	}
	leader := g.Node(k.Nodes[0])
	switch leader.Op {
	case "conv2d":
		// Winograd F(2x2, 3x3): ~2.25x fewer multiplies for unit-stride 3×3
		// convolutions, at the price of transformed-tile memory traffic.
		kh := 0
		for _, in := range leader.Inputs {
			src := g.Node(in)
			if src.IsConst() && len(src.Shape) == 4 {
				kh = src.Shape[2]
				break
			}
		}
		if kh == 3 && leader.Attrs.Int("stride", 1) == 1 {
			out = append(out, Variant{Name: "winograd", FLOPsScale: 0.45, BytesScale: 1.4, ParallelismScale: 1})
		}
		// Spatial tiling trade-off.
		out = append(out,
			Variant{Name: "tile-large", FLOPsScale: 1, BytesScale: 0.8, ParallelismScale: 0.85},
			Variant{Name: "tile-small", FLOPsScale: 1, BytesScale: 1.15, ParallelismScale: 1.3},
		)
	case "dense", "matmul", "batch_matmul", "mha":
		out = append(out,
			// Large blocks: better reuse, fewer independent work items.
			Variant{Name: "tile-large", FLOPsScale: 1, BytesScale: 0.8, ParallelismScale: 0.85},
			// Small blocks: more parallel slack, more traffic.
			Variant{Name: "tile-small", FLOPsScale: 1, BytesScale: 1.15, ParallelismScale: 1.3},
		)
	}
	return out
}

// TunedCosts selects, for every kernel of the module, the variant with the
// lowest modelled time on dev, returning the per-kernel tuned costs. With
// tuning disabled in the module's options, the raw costs return unchanged.
// This is the per-target back-end step: the same graph lowers differently
// for the CPU and the GPU.
func TunedCosts(m *Module, dev *device.Device) []ops.Cost {
	costs := make([]ops.Cost, len(m.Kernels))
	for i := range m.Kernels {
		k := &m.Kernels[i]
		if !m.Opt.Tune {
			costs[i] = k.Cost
			continue
		}
		best := k.Cost
		bestT := dev.KernelTime(best)
		for _, v := range variantsFor(m.Graph, k) {
			c := v.Apply(k.Cost)
			if t := dev.KernelTime(c); t < bestT {
				best, bestT = c, t
			}
		}
		costs[i] = best
	}
	return costs
}

// TunedVariants reports which variant each kernel selected on dev — used
// by diagnostics and the tuning ablation.
func TunedVariants(m *Module, dev *device.Device) []string {
	names := make([]string, len(m.Kernels))
	for i := range m.Kernels {
		k := &m.Kernels[i]
		if !m.Opt.Tune {
			names[i] = defaultVariant.Name
			continue
		}
		bestName := defaultVariant.Name
		bestT := dev.KernelTime(k.Cost)
		for _, v := range variantsFor(m.Graph, k) {
			if t := dev.KernelTime(v.Apply(k.Cost)); t < bestT {
				bestName, bestT = v.Name, t
			}
		}
		names[i] = bestName
	}
	return names
}
