package compiler

import (
	"fmt"
	"sync"

	"duet/internal/graph"
	"duet/internal/ops"
	"duet/internal/tensor"
)

// Module is a compiled graph: the optimized graph plus its kernel plan.
// A Module is what the device models execute and what the profiler measures.
type Module struct {
	Graph   *graph.Graph
	Kernels []Kernel
	Opt     Options

	planOnce sync.Once
	plan     releasePlan
}

// releasePlan is the static part of the arena executor's liveness tracking,
// computed once per module: how many times each node's value is read (plus a
// sentinel read for declared outputs, which must survive the run), and which
// nodes are safe to recycle at all. Inputs and constants belong to the
// caller; alias ops (reshape/flatten) share storage with their operand, so
// neither an alias output nor anything an alias op reads may be recycled.
type releasePlan struct {
	uses       []int  // indexed by NodeID: consumer edges + output sentinel
	releasable []bool // indexed by NodeID
}

func (m *Module) releasePlan() *releasePlan {
	m.planOnce.Do(func() {
		g := m.Graph
		uses := make([]int, g.Len())
		releasable := make([]bool, g.Len())
		for _, n := range g.Nodes() {
			releasable[n.ID] = !n.IsInput() && !n.IsConst()
			if def, err := ops.Lookup(n.Op); err == nil && def.Alias {
				releasable[n.ID] = false
				for _, in := range n.Inputs {
					releasable[in] = false
				}
			}
		}
		for _, n := range g.Nodes() {
			for _, in := range n.Inputs {
				uses[in]++
			}
		}
		for _, o := range g.Outputs() {
			uses[o]++
		}
		m.plan = releasePlan{uses: uses, releasable: releasable}
	})
	return &m.plan
}

// Compile optimizes the graph under opt and lowers it to kernels. The input
// graph is not mutated beyond shape inference.
func Compile(g *graph.Graph, opt Options) (*Module, error) {
	og, err := Optimize(g, opt)
	if err != nil {
		return nil, err
	}
	return &Module{Graph: og, Kernels: Fuse(og, opt.Fuse), Opt: opt}, nil
}

// Env holds runtime values for graph nodes during execution.
type Env map[graph.NodeID]*tensor.Tensor

// NewEnv validates the named inputs against the module's placeholders and
// returns an execution environment seeded with inputs and constants.
func (m *Module) NewEnv(inputs map[string]*tensor.Tensor) (Env, error) {
	env := make(Env, m.Graph.Len())
	for _, n := range m.Graph.Nodes() {
		switch {
		case n.IsConst():
			env[n.ID] = n.Value
		case n.IsInput():
			v, ok := inputs[n.Name]
			if !ok {
				return nil, fmt.Errorf("compiler: missing input %q", n.Name)
			}
			if !tensor.ShapeEq(v.Shape(), n.Shape) {
				return nil, fmt.Errorf("compiler: input %q has shape %v, want %v", n.Name, v.Shape(), n.Shape)
			}
			env[n.ID] = v
		}
	}
	return env, nil
}

// RunKernel executes one kernel's member ops in order against env, storing
// each member's value. The kernel's published output is env[k.Output()].
func (m *Module) RunKernel(k *Kernel, env Env) {
	for _, id := range k.Nodes {
		n := m.Graph.Node(id)
		def := ops.MustLookup(n.Op)
		in := make([]*tensor.Tensor, len(n.Inputs))
		for i, inID := range n.Inputs {
			v, ok := env[inID]
			if !ok {
				panic(fmt.Sprintf("compiler: kernel %s reads %q before it is computed", k.Name, m.Graph.Node(inID).Name))
			}
			in[i] = v
		}
		env[id] = def.Exec(n.Attrs, in, nil)
	}
}

// Execute runs the whole module and returns the declared outputs in order.
func (m *Module) Execute(inputs map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	env, err := m.NewEnv(inputs)
	if err != nil {
		return nil, err
	}
	for i := range m.Kernels {
		m.RunKernel(&m.Kernels[i], env)
	}
	outs := make([]*tensor.Tensor, len(m.Graph.Outputs()))
	for i, o := range m.Graph.Outputs() {
		outs[i] = env[o]
	}
	return outs, nil
}

// ExecuteArena runs the whole module with intermediates drawn from ar,
// releasing each value back to the arena as soon as its last consumer has
// read it — a warm run recycles nearly every activation buffer. Fused
// kernels dispatch straight to the epilogue GEMM without materializing
// group intermediates. A nil arena degrades to Execute.
func (m *Module) ExecuteArena(inputs map[string]*tensor.Tensor, ar *tensor.Arena) ([]*tensor.Tensor, error) {
	if ar == nil {
		return m.Execute(inputs)
	}
	env, err := m.NewEnv(inputs)
	if err != nil {
		return nil, err
	}
	plan := m.releasePlan()
	uses := make([]int, len(plan.uses))
	copy(uses, plan.uses)
	// One input-slice buffer for the whole run; op Exec functions read it
	// during the call and must not retain it.
	var in []*tensor.Tensor
	consume := func(id graph.NodeID) {
		uses[id]--
		if uses[id] == 0 && plan.releasable[id] {
			ar.Release(env[id])
			delete(env, id)
		}
	}
	for i := range m.Kernels {
		k := &m.Kernels[i]
		if f := k.Fused; f != nil {
			env[k.Output()] = m.runFused(k, f, env, ar)
			for _, id := range f.Consumes {
				consume(id)
			}
			continue
		}
		for _, id := range k.Nodes {
			n := m.Graph.Node(id)
			def := ops.MustLookup(n.Op)
			in = in[:0]
			for _, inID := range n.Inputs {
				v, ok := env[inID]
				if !ok {
					panic(fmt.Sprintf("compiler: kernel %s reads %q before it is computed", k.Name, m.Graph.Node(inID).Name))
				}
				in = append(in, v)
			}
			env[id] = def.Exec(n.Attrs, in, ar)
			for _, inID := range n.Inputs {
				consume(inID)
			}
		}
	}
	outs := make([]*tensor.Tensor, len(m.Graph.Outputs()))
	for i, o := range m.Graph.Outputs() {
		outs[i] = env[o]
	}
	return outs, nil
}

// runFused executes one fused kernel: the leader through its native
// kernel, the rest of the group as the compiled tape. The two streamed
// leads — dense (bias add) and batchnorm2d (normalisation) — run their own
// elementwise step and the tape in one pass, sub-chunk by sub-chunk; any
// other leader writes its output and the tape then runs over it in place.
// Emitted intermediates land in arena buffers registered into env; the
// caller settles f.Consumes against the release plan.
func (m *Module) runFused(k *Kernel, f *FusedGroup, env Env, ar *tensor.Arena) *tensor.Tensor {
	var args []*tensor.Tensor
	if len(f.Args) > 0 {
		args = make([]*tensor.Tensor, len(f.Args))
		for i, a := range f.Args {
			v, ok := env[a]
			if !ok {
				panic(fmt.Sprintf("compiler: fused kernel %s reads %q before it is computed", k.Name, m.Graph.Node(a).Name))
			}
			args[i] = v
		}
	}
	var outs []*tensor.Tensor
	if len(f.Emits) > 0 {
		outs = make([]*tensor.Tensor, len(f.Emits))
		for i := range f.Emits {
			outs[i] = ar.NewNoZero(f.Prog.Shape()...)
		}
	}

	lead := m.Graph.Node(f.Lead)
	in := make([]*tensor.Tensor, len(f.LeadIns))
	for i, inID := range f.LeadIns {
		v, ok := env[inID]
		if !ok {
			panic(fmt.Sprintf("compiler: fused kernel %s reads %q before it is computed", k.Name, m.Graph.Node(inID).Name))
		}
		in[i] = v
	}
	var dst *tensor.Tensor
	switch lead.Op {
	case "dense":
		var bias *tensor.Tensor
		if len(in) == 3 {
			bias = in[2]
		}
		dst = tensor.LinearChainInto(nil, in[0], in[1], bias, f.Prog, args, outs, ar)
	case "batchnorm2d":
		dst = tensor.BatchNorm2DChainInto(nil, in[0], in[1], in[2], in[3], in[4], ops.BatchNormEps(lead.Attrs), f.Prog, args, outs, ar)
	default:
		dst = ops.MustLookup(lead.Op).Exec(lead.Attrs, in, ar)
		f.Prog.RunInPlace(dst, args, outs)
	}
	for i, e := range f.Emits {
		env[e] = outs[i]
	}
	return dst
}

// LaunchCount is the module's honest dispatch count: a fused kernel is one
// launch regardless of how many graph ops it absorbed, while an unlowered
// kernel dispatches each member through its registered op (structural ops
// report their own launch counts, typically zero). This is the metric
// unconstrained fusion strictly reduces.
func (m *Module) LaunchCount() int {
	total := 0
	for i := range m.Kernels {
		k := &m.Kernels[i]
		if k.Fused != nil {
			total++
			continue
		}
		for _, id := range k.Nodes {
			total += NodeCost(m.Graph, id).Launches
		}
	}
	return total
}

// UnfusedLaunchCount is what LaunchCount would be had fusion not grouped
// anything: every kernel member dispatches through its registered op. The
// difference against LaunchCount is the launches fusion saved.
func (m *Module) UnfusedLaunchCount() int {
	total := 0
	for i := range m.Kernels {
		for _, id := range m.Kernels[i].Nodes {
			total += NodeCost(m.Graph, id).Launches
		}
	}
	return total
}

// FusionStats summarizes what the fusion pass did to this module.
type FusionStats struct {
	Groups   int // kernels lowered to a fused launch
	FusedOps int // graph ops absorbed into those kernels
	Emits    int // intermediates materialized by epilogue programs
}

// FusionStats reports the module's fusion summary.
func (m *Module) FusionStats() FusionStats {
	var s FusionStats
	for i := range m.Kernels {
		f := m.Kernels[i].Fused
		if f == nil {
			continue
		}
		s.Groups++
		s.FusedOps += len(m.Kernels[i].Nodes)
		s.Emits += len(f.Emits)
	}
	return s
}

// FusedKernelNames lists the module's fused kernels as "name+N" tags,
// where name is the kernel's lead node and N counts the chain ops its
// epilogue tape absorbed. The profiler carries the joined tags into its
// records so the scheduler's audit can name the fused kernels behind each
// placement decision.
func (m *Module) FusedKernelNames() []string {
	var names []string
	for i := range m.Kernels {
		k := &m.Kernels[i]
		if k.Fused == nil {
			continue
		}
		names = append(names, fmt.Sprintf("%s+%d", k.Name, len(k.Nodes)-1))
	}
	return names
}

// TotalCost sums the cost descriptors of every kernel in the module.
func (m *Module) TotalCost() ops.Cost {
	var total ops.Cost
	for i := range m.Kernels {
		total = total.Add(m.Kernels[i].Cost)
	}
	return total
}

// KernelCount returns the number of launchable kernels — the headline
// number fusion reduces.
func (m *Module) KernelCount() int { return len(m.Kernels) }
