package verify

import (
	"duet/internal/compiler"
	"duet/internal/graph"
	"duet/internal/tensor"
)

// CheckFusion verifies the legality of every fused kernel's epilogue
// program by replaying the op-tape symbolically against the source graph.
// The tape machine state — the stream value, each register's contents,
// each emit slot — is tracked as graph node ids via FusedGroup.InstrNodes,
// and three invariant families are enforced:
//
//   - dataflow equivalence: every arithmetic instruction's opcode, operand
//     positions (including Rev), and operand sources (external arg,
//     register, stream) must match the graph node it claims to compute,
//     and every non-leader group member must be computed by the tape;
//   - single-materialization discipline: each emitted intermediate owns
//     exactly one Emit slot, slots map one-to-one onto program outputs;
//   - register def-before-use: a Load or a register operand must follow a
//     Save to that register, and an instruction may read a group member
//     only after the tape has computed it.
//
// Unlowered kernels (Fused == nil) execute op-by-op and have nothing to
// check here; CheckModule covers their release discipline.
func CheckFusion(m *compiler.Module) []Finding {
	if m == nil || m.Graph == nil {
		return nil // CheckModule reports the missing artifacts
	}
	var fs []Finding
	for ki := range m.Kernels {
		k := &m.Kernels[ki]
		if k.Fused != nil {
			fs = append(fs, checkFusedTape(m.Graph, k)...)
		}
	}
	return fs
}

func checkFusedTape(g *graph.Graph, k *compiler.Kernel) []Finding {
	var fs []Finding
	f := k.Fused
	if f.Prog == nil {
		return []Finding{nodeFinding(PassFusion, f.Lead, "fused kernel %q has no epilogue program", k.Name)}
	}
	instrs := f.Prog.Instrs()
	if len(f.InstrNodes) != len(instrs) {
		return []Finding{nodeFinding(PassFusion, f.Lead, "fused kernel %q: tape has %d instructions but %d node annotations", k.Name, len(instrs), len(f.InstrNodes))}
	}
	if f.Prog.NumOuts() != len(f.Emits) {
		fs = append(fs, nodeFinding(PassFusion, f.Lead, "fused kernel %q: program fills %d output slots but the kernel records %d emitted values", k.Name, f.Prog.NumOuts(), len(f.Emits)))
	}

	inGroup := make(map[graph.NodeID]bool, len(k.Nodes))
	for _, id := range k.Nodes {
		inGroup[id] = true
	}

	// Symbolic tape machine: which graph value each storage slot holds.
	stream := f.Lead
	regs := make(map[int]graph.NodeID)
	computed := map[graph.NodeID]bool{f.Lead: true}
	emitSeen := make(map[int]bool)
	emittedNode := make(map[graph.NodeID]bool)

	name := func(id graph.NodeID) string { return g.Node(id).Name }
	// operandCheck validates that one graph input of node v is what the tape
	// supplies, classifying a mismatch as a use before definition when the
	// input is a group member the tape has not produced yet.
	operandCheck := func(idx int, v, wantIn, tapeVal graph.NodeID) {
		if wantIn == tapeVal {
			return
		}
		if inGroup[wantIn] && !computed[wantIn] {
			fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d computes %q before its operand %q — recompute acyclicity violated", k.Name, idx, name(v), name(wantIn)))
			return
		}
		fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d: tape supplies %q where node %q reads %q — op-tape/graph mismatch", k.Name, idx, name(tapeVal), name(v), name(wantIn)))
	}

	for idx, in := range instrs {
		v := f.InstrNodes[idx]
		if int(v) < 0 || int(v) >= g.Len() {
			fs = append(fs, finding(PassFusion, "fused kernel %q instr %d annotated with out-of-range node %d", k.Name, idx, v))
			return fs
		}
		switch {
		case in.Op == tensor.ChainSave:
			if v != stream {
				fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d saves %q but the stream holds %q — op-tape/graph mismatch", k.Name, idx, name(v), name(stream)))
			}
			regs[in.Arg] = stream
		case in.Op == tensor.ChainLoad:
			held, ok := regs[in.Arg]
			if !ok {
				fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d loads register %d before any save — recompute acyclicity violated", k.Name, idx, in.Arg))
				return fs
			}
			if v != held {
				fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d loads %q but register %d holds %q — op-tape/graph mismatch", k.Name, idx, name(v), in.Arg, name(held)))
			}
			stream = held
		case in.Op == tensor.ChainEmit:
			if in.Arg < 0 || in.Arg >= len(f.Emits) {
				fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d emits to slot %d, kernel has %d", k.Name, idx, in.Arg, len(f.Emits)))
				continue
			}
			if emitSeen[in.Arg] {
				fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d writes emit slot %d twice — double materialization", k.Name, idx, in.Arg))
			}
			emitSeen[in.Arg] = true
			if emittedNode[stream] {
				fs = append(fs, nodeFinding(PassFusion, stream, "fused kernel %q materializes %q through more than one emit slot — double materialization", k.Name, name(stream)))
			}
			emittedNode[stream] = true
			if f.Emits[in.Arg] != stream {
				fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d emits %q into slot %d, kernel records %q — op-tape/graph mismatch", k.Name, idx, name(stream), in.Arg, name(f.Emits[in.Arg])))
			}
			if v != stream {
				fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d annotated with %q but emits the stream value %q — op-tape/graph mismatch", k.Name, idx, name(v), name(stream)))
			}
		default:
			// Arithmetic: the instruction claims to compute graph node v.
			n := g.Node(v)
			if !inGroup[v] {
				fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d computes %q, which is not a group member", k.Name, idx, name(v)))
				return fs
			}
			wantOp, ok := compiler.ChainOpFor(n.Op)
			if !ok || wantOp != in.Op {
				fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d opcode %v does not implement node %q (%s) — op-tape/graph mismatch", k.Name, idx, in.Op, name(v), n.Op))
				return fs
			}
			switch {
			case in.Op.IsUnary():
				if len(n.Inputs) != 1 {
					fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d: unary opcode for %d-input node %q", k.Name, idx, len(n.Inputs), name(v)))
					return fs
				}
				operandCheck(idx, v, n.Inputs[0], stream)
			case in.Op.IsBinary():
				if len(n.Inputs) != 2 {
					fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d: binary opcode for %d-input node %q", k.Name, idx, len(n.Inputs), name(v)))
					return fs
				}
				streamIn, otherIn := n.Inputs[0], n.Inputs[1]
				if in.Rev {
					streamIn, otherIn = otherIn, streamIn
				}
				operandCheck(idx, v, streamIn, stream)
				switch in.Src {
				case tensor.SrcCur:
					operandCheck(idx, v, otherIn, stream)
				case tensor.SrcReg:
					held, ok := regs[in.Arg]
					if !ok {
						fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d reads register %d before any save — recompute acyclicity violated", k.Name, idx, in.Arg))
						return fs
					}
					operandCheck(idx, v, otherIn, held)
				case tensor.SrcArg:
					if in.Arg < 0 || in.Arg >= len(f.Args) {
						fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d reads undeclared external operand %d", k.Name, idx, in.Arg))
						return fs
					}
					operandCheck(idx, v, otherIn, f.Args[in.Arg])
					if inGroup[f.Args[in.Arg]] {
						fs = append(fs, nodeFinding(PassFusion, v, "fused kernel %q instr %d reads group member %q as an external operand", k.Name, idx, name(f.Args[in.Arg])))
					}
				}
			}
			stream = v
			computed[v] = true
		}
	}

	// Dataflow completeness: the tape must end on the kernel's published
	// output and must have computed every group member.
	if stream != k.Output() {
		fs = append(fs, nodeFinding(PassFusion, k.Output(), "fused kernel %q tape ends on %q, kernel publishes %q — op-tape/graph mismatch", k.Name, name(stream), name(k.Output())))
	}
	for _, id := range k.Nodes[1:] {
		if !computed[id] {
			fs = append(fs, nodeFinding(PassFusion, id, "fused kernel %q member %q is never computed by the tape", k.Name, name(id)))
		}
	}
	for slot := range f.Emits {
		if !emitSeen[slot] {
			fs = append(fs, nodeFinding(PassFusion, f.Emits[slot], "fused kernel %q emit slot %d (%q) is never written by the tape", k.Name, slot, name(f.Emits[slot])))
		}
	}
	return fs
}
