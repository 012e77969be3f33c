package tensor

import "fmt"

// An epilogue program is a short op-tape applied elementwise to a value
// stream. The compiler lowers an unconstrained fusion group (an anchor or
// elementwise leader plus the elementwise/broadcast chain grown over it) to
// one Program. CompileChain turns each instruction into one closure whose
// body is a typed loop of loops.go for its opcode, operand source,
// broadcast mode and operand order — no call per element. A run cuts the
// stream into sub-chunks of tapeBlock elements and applies every
// instruction to one sub-chunk before moving to the next, so the stream,
// its registers and the operands' matching slices stay in L1 across the
// whole tape — zero intermediate tensors, one launch. A streamed lead (the
// dense GEMM's bias add, batch-norm's normalisation) is one more step at
// the head of each sub-chunk.
//
// The tape machine has three storage classes:
//
//   - the stream: the destination buffer itself, transformed in place;
//   - registers: sub-chunk-local scratch rows holding fork values (a
//     multi-consumer intermediate the stream moves past before its last
//     in-group reader runs);
//   - outputs: full tensors for group intermediates that outside consumers
//     read (each materialized exactly once, by an Emit instruction).
//
// The registered elementwise ops (into.go) run the same typed loops, so a
// fused chain is bit-identical to op-by-op execution.

// ChainOp is the opcode of one tape instruction.
type ChainOp uint8

const (
	// Unary transforms of the stream (match the registered unary ops).
	ChainReLU ChainOp = iota
	ChainSigmoid
	ChainTanh
	ChainGELU
	ChainExp
	ChainSqrt
	// Binary combines of the stream with an operand (match the registered
	// binary ops, including their trailing-dimension/scalar broadcasting).
	ChainAdd
	ChainSub
	ChainMul
	ChainDiv
	ChainMaximum
	// Structural instructions.
	ChainSave // registers[Arg] = stream
	ChainLoad // stream = registers[Arg]
	ChainEmit // outputs[Arg] = stream
)

// ArgSrc selects where a binary instruction's second operand comes from.
type ArgSrc uint8

const (
	// SrcArg reads args[Arg]: an external tensor (kernel input).
	SrcArg ArgSrc = iota
	// SrcReg reads registers[Arg]: a fork value saved earlier on the tape.
	SrcReg
	// SrcCur reads the stream itself (e.g. mul(x, x) squaring the stream).
	SrcCur
)

// Instr is one tape instruction. For binary opcodes Rev swaps the operand
// order: the stream becomes the op's second argument (sub(c, x) rather than
// sub(x, c)), which matters for sub/div and for the -0/NaN edge cases of
// maximum.
type Instr struct {
	Op  ChainOp
	Arg int
	Src ArgSrc
	Rev bool
}

// String renders the instruction for diagnostics.
func (i Instr) String() string {
	name := map[ChainOp]string{
		ChainReLU: "relu", ChainSigmoid: "sigmoid", ChainTanh: "tanh",
		ChainGELU: "gelu", ChainExp: "exp", ChainSqrt: "sqrt",
		ChainAdd: "add", ChainSub: "sub", ChainMul: "mul", ChainDiv: "div",
		ChainMaximum: "maximum", ChainSave: "save", ChainLoad: "load",
		ChainEmit: "emit",
	}[i.Op]
	switch {
	case i.Op >= ChainSave:
		return fmt.Sprintf("%s %d", name, i.Arg)
	case i.Op >= ChainAdd:
		src := map[ArgSrc]string{SrcArg: "arg", SrcReg: "reg", SrcCur: "cur"}[i.Src]
		if i.Rev {
			return fmt.Sprintf("%s %s%d rev", name, src, i.Arg)
		}
		return fmt.Sprintf("%s %s%d", name, src, i.Arg)
	default:
		return name
	}
}

// IsBinary reports whether the opcode consumes a second operand.
func (op ChainOp) IsBinary() bool { return op >= ChainAdd && op <= ChainMaximum }

// IsUnary reports whether the opcode is a pure unary transform.
func (op ChainOp) IsUnary() bool { return op <= ChainSqrt }

// argMode is the broadcast class of one external operand, fixed at compile
// time from its static shape.
type argMode uint8

const (
	argFull   argMode = iota // same shape as the stream
	argRow                   // 1-D operand matching the stream's last dim
	argScalar                // single element
)

// broadcastMode classifies an operand of shape b against a stream of shape
// a in the registered binary ops' vocabulary: full, trailing 1-D row, or
// scalar. A one-element row is a scalar.
func broadcastMode(a, b []int) (argMode, bool) {
	switch {
	case ShapeEq(a, b):
		return argFull, true
	case Numel(b) == 1:
		return argScalar, true
	case len(b) == 1 && len(a) > 0 && a[len(a)-1] == b[0]:
		return argRow, true
	}
	return 0, false
}

// tapeBlock is the sub-chunk, in elements, that a run applies every
// instruction to before it moves on: 4 KB of stream, and as much again per
// live register and full-shape operand, all of it L1-resident for the whole
// tape.
const tapeBlock = 1 << 10

// chainFn applies one instruction to one sub-chunk of the stream: cur is
// stream[base:base+len(cur)], regs holds the program's registers as rows of
// tapeBlock floats, args and outs are the full operand and output buffers.
type chainFn func(cur []float32, base int, args [][]float32, regs []float32, outs [][]float32)

// leadStep is a streamed lead's own work on one sub-chunk (cur is
// stream[base:base+len(cur)]), run just before the tape passes over it.
type leadStep func(cur []float32, base int)

// Program is a compiled epilogue program. Compile once (CompileChain), run
// many times; a Program is immutable and safe for concurrent Runs.
type Program struct {
	instrs  []Instr
	fns     []chainFn
	shape   []int
	argLens []int
	numRegs int
	numOuts int
	ns      float64 // the tape's price per stream element: Σ elemNs
}

// CompileChain validates the tape against the stream shape and the static
// operand shapes and compiles it into a Program. It rejects malformed tapes:
// out-of-range operands, a Load or SrcReg read of a register no Save has
// written, duplicate Emit slots, and operand shapes outside the broadcast
// vocabulary (full, trailing 1-D, scalar).
func CompileChain(instrs []Instr, shape []int, argShapes [][]int) (*Program, error) {
	p := &Program{
		instrs:  append([]Instr(nil), instrs...),
		shape:   cloneInts(shape),
		argLens: make([]int, len(argShapes)),
	}
	modes := make([]argMode, len(argShapes))
	for ai, as := range argShapes {
		m, ok := broadcastMode(shape, as)
		if !ok {
			return nil, fmt.Errorf("tensor: chain arg %d shape %v does not broadcast into stream %v", ai, as, shape)
		}
		p.argLens[ai], modes[ai] = Numel(as), m
	}
	saved := make(map[int]bool)
	emitted := make(map[int]bool)
	p.fns = make([]chainFn, 0, len(instrs))
	for idx, in := range instrs {
		p.ns += elemNs(in.Op)
		switch {
		case in.Op.IsUnary():
			loop := unaryLoops[in.Op]
			p.fns = append(p.fns, func(cur []float32, _ int, _ [][]float32, _ []float32, _ [][]float32) {
				loop(cur, cur)
			})
		case in.Op.IsBinary():
			switch in.Src {
			case SrcArg:
				if in.Arg < 0 || in.Arg >= len(argShapes) {
					return nil, fmt.Errorf("tensor: chain instr %d (%s) reads undeclared operand %d", idx, in, in.Arg)
				}
				p.fns = append(p.fns, argChainFn(in.Op, in.Arg, modes[in.Arg], in.Rev))
			case SrcReg:
				if in.Arg < 0 || in.Arg >= p.numRegs || !saved[in.Arg] {
					return nil, fmt.Errorf("tensor: chain instr %d (%s) reads register %d before any save", idx, in, in.Arg)
				}
				p.fns = append(p.fns, regChainFn(binaryLoops[in.Op], in.Arg, in.Rev))
			case SrcCur:
				loop := binaryLoops[in.Op]
				p.fns = append(p.fns, func(cur []float32, _ int, _ [][]float32, _ []float32, _ [][]float32) {
					loop(cur, cur, cur)
				})
			default:
				return nil, fmt.Errorf("tensor: chain instr %d has unknown operand source %d", idx, in.Src)
			}
		case in.Op == ChainSave:
			if in.Arg < 0 {
				return nil, fmt.Errorf("tensor: chain instr %d saves to negative register %d", idx, in.Arg)
			}
			if in.Arg >= p.numRegs {
				p.numRegs = in.Arg + 1
			}
			saved[in.Arg] = true
			row := in.Arg * tapeBlock
			p.fns = append(p.fns, func(cur []float32, _ int, _ [][]float32, regs []float32, _ [][]float32) {
				copy(regs[row:row+len(cur)], cur)
			})
		case in.Op == ChainLoad:
			if in.Arg < 0 || !saved[in.Arg] {
				return nil, fmt.Errorf("tensor: chain instr %d (%s) loads register %d before any save", idx, in, in.Arg)
			}
			row := in.Arg * tapeBlock
			p.fns = append(p.fns, func(cur []float32, _ int, _ [][]float32, regs []float32, _ [][]float32) {
				copy(cur, regs[row:row+len(cur)])
			})
		case in.Op == ChainEmit:
			if in.Arg < 0 {
				return nil, fmt.Errorf("tensor: chain instr %d emits to negative slot %d", idx, in.Arg)
			}
			if emitted[in.Arg] {
				return nil, fmt.Errorf("tensor: chain instr %d emits slot %d twice", idx, in.Arg)
			}
			emitted[in.Arg] = true
			if in.Arg >= p.numOuts {
				p.numOuts = in.Arg + 1
			}
			slot := in.Arg
			p.fns = append(p.fns, func(cur []float32, base int, _ [][]float32, _ []float32, outs [][]float32) {
				copy(outs[slot][base:base+len(cur)], cur)
			})
		default:
			return nil, fmt.Errorf("tensor: chain instr %d has unknown opcode %d", idx, in.Op)
		}
	}
	for slot := 0; slot < p.numOuts; slot++ {
		if !emitted[slot] {
			return nil, fmt.Errorf("tensor: chain output slot %d is never emitted", slot)
		}
	}
	return p, nil
}

// argChainFn compiles a binary instruction on an external operand: one
// closure per broadcast mode and operand order, each around its typed loop.
func argChainFn(op ChainOp, ai int, mode argMode, rev bool) chainFn {
	switch mode {
	case argFull:
		loop := binaryLoops[op]
		if rev {
			return func(cur []float32, base int, args [][]float32, _ []float32, _ [][]float32) {
				loop(cur, args[ai][base:base+len(cur)], cur)
			}
		}
		return func(cur []float32, base int, args [][]float32, _ []float32, _ [][]float32) {
			loop(cur, cur, args[ai][base:base+len(cur)])
		}
	case argRow:
		loop := binaryLoops[op]
		return func(cur []float32, base int, args [][]float32, _ []float32, _ [][]float32) {
			rowWalk(loop, cur, cur, base, args[ai], rev)
		}
	default:
		sl := scalarLoopOf(op, rev)
		return func(cur []float32, _ int, args [][]float32, _ []float32, _ [][]float32) {
			sl(cur, cur, args[ai][0])
		}
	}
}

// regChainFn compiles a binary instruction on a register.
func regChainFn(loop binaryLoop, reg int, rev bool) chainFn {
	row := reg * tapeBlock
	if rev {
		return func(cur []float32, _ int, _ [][]float32, regs []float32, _ [][]float32) {
			loop(cur, regs[row:row+len(cur)], cur)
		}
	}
	return func(cur []float32, _ int, _ [][]float32, regs []float32, _ [][]float32) {
		loop(cur, cur, regs[row:row+len(cur)])
	}
}

// Instrs returns the tape (callers must not mutate it).
func (p *Program) Instrs() []Instr { return p.instrs }

// Len returns the number of tape instructions.
func (p *Program) Len() int { return len(p.instrs) }

// NumRegs returns how many scratch registers the tape uses.
func (p *Program) NumRegs() int { return p.numRegs }

// NumOuts returns how many extra output tensors Emit instructions fill.
func (p *Program) NumOuts() int { return p.numOuts }

// Shape returns the stream shape the program was compiled for.
func (p *Program) Shape() []int { return p.shape }

// RunInPlace streams dst through the program. dst must have the compiled
// stream shape, args the compiled operand shapes, and outs one tensor of
// the stream shape per Emit slot; the tape's registers come from ar. The
// transform is chunk-parallel and bit-deterministic: every element's value
// depends only on its own index.
func (p *Program) RunInPlace(dst *Tensor, args, outs []*Tensor, ar *Arena) {
	p.run(dst, nil, args, outs, ar)
}

// run is the one executor of programs and streamed leads: it walks dst in
// parallel chunks, and each chunk sub-chunk by sub-chunk through lead (when
// non-nil) and then the tape. A nil p runs the lead alone.
func (p *Program) run(dst *Tensor, lead leadStep, args, outs []*Tensor, ar *Arena) {
	argData, outData := p.bind(dst, args, outs)
	n, ns := len(dst.data), nsStream // the lead, or the pass itself
	if p != nil {
		ns += p.ns
	}
	if parts, grain := fanOut(n, float64(n)*ns); parts > 1 {
		ParallelForChunked(n, parts, grain, func(lo, hi int) { p.walk(dst.data, lo, hi, lead, argData, outData, ar) })
		return
	}
	p.walk(dst.data, 0, n, lead, argData, outData, ar)
}

// bind checks dst, args and outs against the compiled shapes and returns
// the operand and output buffers. A nil p binds nothing.
func (p *Program) bind(dst *Tensor, args, outs []*Tensor) (argData, outData [][]float32) {
	if p == nil {
		return nil, nil
	}
	if !ShapeEq(dst.shape, p.shape) {
		panic(fmt.Sprintf("tensor: chain destination %v, want %v", dst.shape, p.shape))
	}
	if len(args) != len(p.argLens) {
		panic(fmt.Sprintf("tensor: chain got %d operands, want %d", len(args), len(p.argLens)))
	}
	argData = make([][]float32, len(args))
	for i, a := range args {
		if a.Numel() != p.argLens[i] {
			panic(fmt.Sprintf("tensor: chain operand %d has %d elements, want %d", i, a.Numel(), p.argLens[i]))
		}
		argData[i] = a.data
	}
	if len(outs) != p.numOuts {
		panic(fmt.Sprintf("tensor: chain got %d output slots, want %d", len(outs), p.numOuts))
	}
	outData = make([][]float32, len(outs))
	for i, o := range outs {
		if !ShapeEq(o.shape, p.shape) {
			panic(fmt.Sprintf("tensor: chain output %d shape %v, want %v", i, o.shape, p.shape))
		}
		outData[i] = o.data
	}
	return argData, outData
}

// walk is the sub-chunk walker: it applies lead and then every instruction
// to stream[lo:hi] tapeBlock elements at a time, registers included, so a
// sub-chunk is finished before the next is touched. Each walk draws its
// registers from ar and returns them.
func (p *Program) walk(stream []float32, lo, hi int, lead leadStep, args, outs [][]float32, ar *Arena) {
	var fns []chainFn
	var regs []float32
	if p != nil {
		fns = p.fns
		if need := p.numRegs * tapeBlock; need > 0 {
			t := ar.NewNoZero(need)
			defer ar.Release(t)
			regs = t.data
		}
	}
	for base := lo; base < hi; base += tapeBlock {
		cur := stream[base:min(base+tapeBlock, hi)]
		if lead != nil {
			lead(cur, base)
		}
		for _, fn := range fns {
			fn(cur, base, args, regs, outs)
		}
	}
}

// ChainInto copies src into out (allocated from ar when nil) and streams it
// through the program, the copy being the lead step of each sub-chunk: the
// standalone elementwise-chain kernel. outs must hold NumOuts tensors of
// the stream shape. Use this when the seed value must survive (aliased or
// shared storage); when the caller owns a fresh seed buffer, RunInPlace
// avoids the copy.
func ChainInto(out *Tensor, src *Tensor, p *Program, args, outs []*Tensor, ar *Arena) *Tensor {
	out = intoShape(out, src.shape, ar, "ChainInto")
	p.run(out, func(cur []float32, base int) { copy(cur, src.data[base:]) }, args, outs, ar)
	return out
}

// LinearChainInto is the fused dense-lead kernel prog(x·wᵀ + bias): it
// computes the packed GEMM x·wᵀ into out and then streams the output
// through the bias add and the whole epilogue program, sub-chunk by
// sub-chunk — one pass after the GEMM. A nil p degrades to LinearInto.
func LinearChainInto(out *Tensor, x, w, bias *Tensor, p *Program, args, outs []*Tensor, ar *Arena) *Tensor {
	if p == nil {
		return LinearInto(out, x, w, bias, ar)
	}
	out = linearGEMM(out, x, w, bias, ar)
	var lead leadStep
	if bias != nil {
		lead = func(cur []float32, base int) { rowWalk(addLoop, cur, cur, base, bias.data, false) }
	}
	p.run(out, lead, args, outs, ar)
	return out
}
