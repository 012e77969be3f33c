package compiler

import (
	"fmt"
	"sort"

	"duet/internal/graph"
	"duet/internal/ops"
	"duet/internal/tensor"
)

// maxChainRegs bounds the chunk-local scratch rows an epilogue program may
// hold live at once. Groups that exceed it fall back to unlowered op-by-op
// dispatch.
const maxChainRegs = 8

// Kernel is one launchable unit in a compiled module: a group leader plus
// the elementwise ops fused behind it (or a lone operator when fusion is
// off / impossible). Cost reflects the fused launch structure — this is
// precisely why compiler-aware profiling matters: the same subgraph has
// different launch counts and memory traffic after fusion (§III-A).
type Kernel struct {
	Name  string
	Nodes []graph.NodeID // execution order; Nodes[0] is the group leader
	Cost  ops.Cost
	// Fused, when non-nil, lowers the whole group to a single launch: the
	// leader's native kernel followed by an epilogue program streamed over
	// its output. Only set when the program reproduces the group bit-exactly.
	Fused *FusedGroup
}

// FusedGroup is the lowered form of a fusion group: the leader executes
// through its registered kernel (the dense lead gets the fused
// GEMM+epilogue fast path) and the epilogue program transforms the result
// in place. Group intermediates live in chunk-local registers; only values
// with readers outside the group are materialized, each exactly once,
// through an Emit slot.
type FusedGroup struct {
	Lead    graph.NodeID   // group leader (executes natively)
	LeadIns []graph.NodeID // leader's operand node ids
	Prog    *tensor.Program
	Args    []graph.NodeID // external tape operands, indexed by Instr.Arg
	Emits   []graph.NodeID // node materialized by Emit slot i
	// InstrNodes maps each tape instruction to the graph node it computes
	// (arithmetic), snapshots (save/load), or materializes (emit). The
	// verify fusion pass replays the tape against the graph through it.
	InstrNodes []graph.NodeID
	// Consumes lists, with multiplicity, the consumer edges this kernel
	// settles against the release plan: the leader's operands, every edge
	// from a member to an outside value, and the in-group edges of emitted
	// values (their buffers are real, so their in-group reads must count).
	Consumes []graph.NodeID
}

// Fuse groups the graph's compute nodes into kernels. Off, every compute
// node is its own kernel (the framework baseline). On, groups are grown
// greedily in leader topological order over arbitrary elementwise/broadcast
// chains — through multi-consumer forks, residual re-joins, and declared
// outputs — and every multi-op group lowers to one epilogue-program kernel.
// The absorbed ops' FLOPs fold into the leader's cost while the leader
// keeps its launch count, which is what makes fused subgraphs cheaper to
// the scheduler before any placement decision happens.
func Fuse(g *graph.Graph, on bool) []Kernel {
	consumers := g.Consumers()
	assigned := make(map[graph.NodeID]bool)
	declared := make(map[graph.NodeID]bool)
	for _, o := range g.Outputs() {
		declared[o] = true
	}
	var kernels []Kernel

	for _, id := range g.TopoSort() {
		n := g.Node(id)
		if n.IsInput() || n.IsConst() || assigned[id] {
			continue
		}
		assigned[id] = true
		if !on {
			kernels = append(kernels, Kernel{Name: n.Name, Nodes: []graph.NodeID{id}, Cost: NodeCost(g, id)})
			continue
		}
		group := growUnconstrained(g, id, consumers, assigned)
		fused := lowerGroup(g, group, consumers, declared)
		kernels = append(kernels, Kernel{Name: n.Name, Nodes: group, Fused: fused, Cost: unconstrainedCost(g, group, fused)})
	}
	return kernels
}

// growUnconstrained grows a maximal fusion group: any elementwise consumer
// of any group value joins, as long as its output keeps the group's stream
// shape and its remaining operands are consts, runtime inputs, or values
// already assigned to earlier kernels. Multi-consumer intermediates,
// residual re-joins (both operands inside the group), and declared outputs
// all stay inside the group — the tape builder decides per value whether
// to hold it in a register or emit it.
func growUnconstrained(g *graph.Graph, lead graph.NodeID, consumers map[graph.NodeID][]graph.NodeID,
	assigned map[graph.NodeID]bool) []graph.NodeID {
	shape := g.Node(lead).Shape
	members := []graph.NodeID{lead}
	memberSet := map[graph.NodeID]bool{lead: true}
	for progress := true; progress; {
		progress = false
		cands := make(map[graph.NodeID]bool)
		for _, m := range members {
			for _, c := range consumers[m] {
				if !memberSet[c] && !assigned[c] {
					cands[c] = true
				}
			}
		}
		sorted := make([]graph.NodeID, 0, len(cands))
		for c := range cands {
			sorted = append(sorted, c)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, c := range sorted {
			n := g.Node(c)
			def, err := ops.Lookup(n.Op)
			if err != nil || !def.Elementwise || def.Alias {
				continue
			}
			// Only ops the tape can express join; elementwise ops outside the
			// chain vocabulary (batchnorm2d's per-channel affine, dropout, …)
			// would force the whole group back to op-by-op execution. The lead
			// is exempt — it executes natively before the tape runs.
			if _, ok := chainOpOf(n.Op); !ok {
				continue
			}
			if !tensor.ShapeEq(n.Shape, shape) {
				continue
			}
			ok := true
			for _, in := range n.Inputs {
				if memberSet[in] {
					continue
				}
				if src := g.Node(in); !src.IsInput() && !src.IsConst() && !assigned[in] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			members = append(members, c)
			memberSet[c] = true
			assigned[c] = true
			progress = true
		}
	}
	// Node ids are topological by construction, so ascending id order is a
	// valid execution order for the tape.
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return members
}

// chainOpOf maps a registered elementwise op kind to its tape opcode.
func chainOpOf(kind string) (tensor.ChainOp, bool) { return ChainOpFor(kind) }

// ChainOpFor maps a registered elementwise op kind to its tape opcode; the
// verify fusion pass uses it to replay tapes against the graph.
func ChainOpFor(kind string) (tensor.ChainOp, bool) {
	switch kind {
	case "relu":
		return tensor.ChainReLU, true
	case "sigmoid":
		return tensor.ChainSigmoid, true
	case "tanh":
		return tensor.ChainTanh, true
	case "gelu":
		return tensor.ChainGELU, true
	case "exp":
		return tensor.ChainExp, true
	case "sqrt":
		return tensor.ChainSqrt, true
	case "add":
		return tensor.ChainAdd, true
	case "sub":
		return tensor.ChainSub, true
	case "mul":
		return tensor.ChainMul, true
	case "div":
		return tensor.ChainDiv, true
	case "maximum":
		return tensor.ChainMaximum, true
	}
	return 0, false
}

// tapeState carries the incremental lowering of one fusion group to an
// epilogue program.
type tapeState struct {
	g         *graph.Graph
	shape     []int
	memberSet map[graph.NodeID]bool

	instrs     []tensor.Instr
	instrNodes []graph.NodeID
	args       []graph.NodeID
	argIdx     map[graph.NodeID]int
	emits      []graph.NodeID

	cur     graph.NodeID
	regOf   map[graph.NodeID]int
	regFree []int
	remUses map[graph.NodeID]int // unconsumed in-group reads per value
}

// lowerGroup lowers an unconstrained fusion group to a FusedGroup, or nil
// when the group is a single node or the tape cannot express it (more live
// values than registers); unlowered groups keep op-by-op dispatch.
func lowerGroup(g *graph.Graph, members []graph.NodeID, consumers map[graph.NodeID][]graph.NodeID,
	declared map[graph.NodeID]bool) *FusedGroup {
	if len(members) < 2 {
		return nil
	}
	lead := members[0]
	leadNode := g.Node(lead)
	if def, err := ops.Lookup(leadNode.Op); err != nil || def.Alias {
		return nil
	}
	ts := &tapeState{
		g:         g,
		shape:     leadNode.Shape,
		memberSet: make(map[graph.NodeID]bool, len(members)),
		argIdx:    make(map[graph.NodeID]int),
		cur:       lead,
		regOf:     make(map[graph.NodeID]int),
		remUses:   make(map[graph.NodeID]int),
	}
	for r := maxChainRegs - 1; r >= 0; r-- {
		ts.regFree = append(ts.regFree, r)
	}
	for _, m := range members {
		ts.memberSet[m] = true
	}
	for _, m := range members[1:] {
		for _, in := range g.Node(m).Inputs {
			if ts.memberSet[in] {
				ts.remUses[in]++
			}
		}
	}
	tail := members[len(members)-1]
	published := func(v graph.NodeID) bool {
		if v == tail {
			return false
		}
		if declared[v] {
			return true
		}
		for _, c := range consumers[v] {
			if !ts.memberSet[c] {
				return true
			}
		}
		return false
	}

	if published(lead) {
		ts.emitValue(lead)
	}
	for _, m := range members[1:] {
		if !ts.lowerMember(m) {
			return nil
		}
		if published(m) {
			ts.emitValue(m)
		}
	}

	prog, err := ts.compile()
	if err != nil {
		// The tape machinery rejected the group; fall back to op-by-op.
		return nil
	}
	f := &FusedGroup{
		Lead:       lead,
		LeadIns:    append([]graph.NodeID(nil), leadNode.Inputs...),
		Prog:       prog,
		Args:       ts.args,
		Emits:      ts.emits,
		InstrNodes: ts.instrNodes,
	}
	f.Consumes = groupConsumes(g, members, ts.memberSet, f.Emits)
	return f
}

// lowerMember appends the tape instructions that compute member m: stream
// switching (load), preservation of the value m's instruction overwrites,
// the arithmetic instruction itself, and the consumption bookkeeping.
func (ts *tapeState) lowerMember(m graph.NodeID) bool {
	n := ts.g.Node(m)
	op, ok := chainOpOf(n.Op)
	if !ok {
		return false
	}
	// Pick the stream parent: the current stream when it feeds m, else m's
	// first in-group operand.
	var parents []graph.NodeID
	for _, in := range n.Inputs {
		if ts.memberSet[in] {
			parents = append(parents, in)
		}
	}
	if len(parents) == 0 {
		return false
	}
	parent := parents[0]
	for _, p := range parents {
		if p == ts.cur {
			parent = p
			break
		}
	}
	if parent != ts.cur && !ts.switchStream(parent) {
		return false
	}

	var instr tensor.Instr
	switch {
	case op.IsUnary():
		if len(n.Inputs) != 1 || n.Inputs[0] != parent {
			return false
		}
		instr = tensor.Instr{Op: op}
	case op.IsBinary():
		if len(n.Inputs) != 2 {
			return false
		}
		a, b := n.Inputs[0], n.Inputs[1]
		switch {
		case a == parent && b == parent:
			instr = tensor.Instr{Op: op, Src: tensor.SrcCur}
		case a == parent:
			var okSrc bool
			if instr, okSrc = ts.operandInstr(op, b, false); !okSrc {
				return false
			}
		case b == parent:
			var okSrc bool
			if instr, okSrc = ts.operandInstr(op, a, true); !okSrc {
				return false
			}
		default:
			return false
		}
	default:
		return false
	}
	// The instruction overwrites the stream (parent's value). Preserve it
	// first if readers remain beyond m's own edges.
	edges := 0
	for _, in := range n.Inputs {
		if in == parent {
			edges++
		}
	}
	if !ts.preserveValue(parent, ts.remUses[parent]-edges) {
		return false
	}
	ts.emit(instr, m)
	// m consumes its in-group operands (one read per edge).
	for _, in := range n.Inputs {
		if ts.memberSet[in] {
			ts.consumeValue(in)
		}
	}
	ts.cur = m
	return true
}

// operandInstr builds the binary instruction for a non-stream operand:
// an external kernel input, or an in-group value pinned in a register.
func (ts *tapeState) operandInstr(op tensor.ChainOp, operand graph.NodeID, rev bool) (tensor.Instr, bool) {
	if !ts.memberSet[operand] {
		return tensor.Instr{Op: op, Arg: ts.argSlot(operand), Src: tensor.SrcArg, Rev: rev}, true
	}
	reg, ok := ts.regOf[operand]
	if !ok {
		// The operand was never saved into a register — the group cannot be
		// expressed as a tape.
		return tensor.Instr{}, false
	}
	return tensor.Instr{Op: op, Arg: reg, Src: tensor.SrcReg, Rev: rev}, true
}

// switchStream moves the stream from ts.cur to target: the displaced value
// is kept reachable if still needed, then the target is loaded from its
// register. Returns false when target was never saved.
func (ts *tapeState) switchStream(target graph.NodeID) bool {
	if !ts.preserveValue(ts.cur, ts.remUses[ts.cur]) {
		return false
	}
	reg, ok := ts.regOf[target]
	if !ok {
		return false
	}
	ts.emit(tensor.Instr{Op: tensor.ChainLoad, Arg: reg}, target)
	ts.cur = target
	return true
}

// preserveValue keeps v reachable before the stream overwrites it: no-op
// when nothing reads it again or it already sits in a register, else a
// register save. Returns false when no register is free, so the tape
// cannot express the group.
func (ts *tapeState) preserveValue(v graph.NodeID, future int) bool {
	if future <= 0 {
		return true
	}
	if _, saved := ts.regOf[v]; saved {
		return true
	}
	return ts.saveValue(v)
}

// saveValue snapshots the current stream value into a free register.
func (ts *tapeState) saveValue(v graph.NodeID) bool {
	if len(ts.regFree) == 0 {
		return false
	}
	reg := ts.regFree[len(ts.regFree)-1]
	ts.regFree = ts.regFree[:len(ts.regFree)-1]
	ts.regOf[v] = reg
	ts.emit(tensor.Instr{Op: tensor.ChainSave, Arg: reg}, v)
	return true
}

// consumeValue retires one pending in-group read of v, freeing its
// register once nothing will read it again.
func (ts *tapeState) consumeValue(v graph.NodeID) {
	ts.remUses[v]--
	if ts.remUses[v] <= 0 {
		if reg, ok := ts.regOf[v]; ok {
			delete(ts.regOf, v)
			ts.regFree = append(ts.regFree, reg)
		}
	}
}

// emitValue materializes the current stream value into a fresh output slot.
func (ts *tapeState) emitValue(v graph.NodeID) {
	slot := len(ts.emits)
	ts.emits = append(ts.emits, v)
	ts.emit(tensor.Instr{Op: tensor.ChainEmit, Arg: slot}, v)
}

// argSlot interns an external operand, returning its tape index.
func (ts *tapeState) argSlot(v graph.NodeID) int {
	if i, ok := ts.argIdx[v]; ok {
		return i
	}
	i := len(ts.args)
	ts.argIdx[v] = i
	ts.args = append(ts.args, v)
	return i
}

func (ts *tapeState) emit(instr tensor.Instr, node graph.NodeID) {
	ts.instrs = append(ts.instrs, instr)
	ts.instrNodes = append(ts.instrNodes, node)
}

// compile hands the finished tape to the tensor layer.
func (ts *tapeState) compile() (*tensor.Program, error) {
	argShapes := make([][]int, len(ts.args))
	for i, a := range ts.args {
		argShapes[i] = ts.g.Node(a).Shape
	}
	return tensor.CompileChain(ts.instrs, ts.shape, argShapes)
}

// groupConsumes derives the consumer edges a fused kernel settles: the
// leader's operands, every member edge to an outside value, and the
// in-group edges of emitted values.
func groupConsumes(g *graph.Graph, members []graph.NodeID, memberSet map[graph.NodeID]bool,
	emits []graph.NodeID) []graph.NodeID {
	var consumes []graph.NodeID
	for _, in := range g.Node(members[0]).Inputs {
		consumes = append(consumes, in)
	}
	for _, m := range members[1:] {
		for _, in := range g.Node(m).Inputs {
			if !memberSet[in] {
				consumes = append(consumes, in)
			}
		}
	}
	emitted := make(map[graph.NodeID]bool, len(emits))
	for _, e := range emits {
		emitted[e] = true
	}
	for _, m := range members[1:] {
		for _, in := range g.Node(m).Inputs {
			if emitted[in] {
				consumes = append(consumes, in)
			}
		}
	}
	return consumes
}

// unconstrainedCost merges the group's cost descriptor: the leader keeps
// its launch count, absorbed FLOPs fold in, and
// the fused kernel's memory traffic grows only by its real external reads
// (tape operands) and writes (emitted intermediates) — the eliminated
// intermediate round trips are exactly the point of the pass.
func unconstrainedCost(g *graph.Graph, group []graph.NodeID, f *FusedGroup) ops.Cost {
	cost := NodeCost(g, group[0])
	for _, m := range group[1:] {
		c := NodeCost(g, m)
		cost.FLOPs += c.FLOPs
		if c.Parallelism > cost.Parallelism {
			cost.Parallelism = c.Parallelism
		}
		if c.SeqSteps > cost.SeqSteps {
			cost.SeqSteps = c.SeqSteps
		}
	}
	if len(group) > 1 && cost.Launches == 0 {
		cost.Launches = 1
	}
	if f == nil {
		return cost
	}
	numelS := float64(numelOf(g.Node(f.Lead).Shape))
	for _, a := range f.Args {
		cost.Bytes += 4 * float64(numelOf(g.Node(a).Shape))
	}
	cost.Bytes += 8 * numelS * float64(len(f.Emits))
	return cost
}

// numelOf returns the element count of a shape.
func numelOf(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Output returns the node whose value the kernel publishes (its last node).
func (k *Kernel) Output() graph.NodeID { return k.Nodes[len(k.Nodes)-1] }

// String describes the kernel for traces and debugging.
func (k *Kernel) String() string {
	return fmt.Sprintf("kernel(%s, %d ops)", k.Name, len(k.Nodes))
}
