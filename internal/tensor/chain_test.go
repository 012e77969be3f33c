package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func mustCompileChain(t *testing.T, instrs []Instr, shape []int, argShapes [][]int) *Program {
	t.Helper()
	p, err := CompileChain(instrs, shape, argShapes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChainMatchesOpByOp runs a tape exercising every storage class —
// registers, Rev operands, SrcCur, row/scalar/full broadcast args, and an
// Emit slot — and demands bit-identical results to the same computation
// composed from the standalone elementwise kernels.
func TestChainMatchesOpByOp(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, shape := range [][]int{{1, 1}, {3, 7}, {5, 300}, {70, 70}} {
		m, n := shape[0], shape[1]
		x := Rand(rng, 1, m, n)
		rowArg := Rand(rng, 1, n)
		fullArg := Rand(rng, 1, m, n)
		scalArg := Rand(rng, 1, 1)

		// save0=x; sigmoid; save1; load0; relu; add row; mul reg1;
		// emit0; maximum full (rev); div scalar.
		prog := mustCompileChain(t, []Instr{
			{Op: ChainSave, Arg: 0},
			{Op: ChainSigmoid},
			{Op: ChainSave, Arg: 1},
			{Op: ChainLoad, Arg: 0},
			{Op: ChainReLU},
			{Op: ChainAdd, Arg: 0, Src: SrcArg},
			{Op: ChainMul, Arg: 1, Src: SrcReg},
			{Op: ChainEmit, Arg: 0},
			{Op: ChainMaximum, Arg: 1, Src: SrcArg, Rev: true},
			{Op: ChainDiv, Arg: 2, Src: SrcArg},
			{Op: ChainMul, Src: SrcCur},
		}, shape, [][]int{rowArg.Shape(), fullArg.Shape(), scalArg.Shape()})
		if prog.NumRegs() != 2 || prog.NumOuts() != 1 {
			t.Fatalf("program has %d regs / %d outs, want 2 / 1", prog.NumRegs(), prog.NumOuts())
		}

		// Reference: same computation via the standalone kernels.
		sig := SigmoidInto(nil, x, nil)
		stepped := MulInto(nil, AddInto(nil, ReLUInto(nil, x, nil), rowArg, nil), sig, nil)
		wantEmit := stepped
		mx := MaximumInto(nil, fullArg, stepped, nil) // Rev: stream is the second operand
		dv := DivInto(nil, mx, scalArg, nil)
		want := MulInto(nil, dv, dv, nil)

		snapshot := x.Clone()
		emit := New(m, n)
		got := ChainInto(nil, x, prog, []*Tensor{rowArg, fullArg, scalArg}, []*Tensor{emit}, nil)
		if !bitEqual(got, want) {
			t.Fatalf("chain %v differs from op-by-op (max |Δ| %g)", shape, MaxAbsDiff(got, want))
		}
		if !bitEqual(emit, wantEmit) {
			t.Fatalf("chain %v emit slot differs from op-by-op", shape)
		}
		// ChainInto must leave the source untouched (it copies).
		if got == x || !bitEqual(x, snapshot) {
			t.Fatalf("Chain mutated or aliased its source")
		}
	}
}

// TestChainSerialMatchesParallel pins chunk independence: a register- and
// broadcast-bearing tape over a stream the fan-out rule splits must produce
// the same bits single-threaded and at width 2.
func TestChainSerialMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, n := 200, 70 // 14,000 elements of a 15 ns/element pass: 210 µs
	x := Rand(rng, 1, m, n)
	row := Rand(rng, 1, n)
	prog := mustCompileChain(t, []Instr{
		{Op: ChainSave, Arg: 0},
		{Op: ChainTanh},
		{Op: ChainAdd, Arg: 0, Src: SrcArg},
		{Op: ChainMaximum, Arg: 0, Src: SrcReg, Rev: true},
		{Op: ChainEmit, Arg: 0},
		{Op: ChainGELU},
	}, x.Shape(), [][]int{row.Shape()})

	emitP := New(m, n)
	var pooled *Tensor
	SetMaxWorkers(2)
	if !fannedOut(func() { pooled = ChainInto(nil, x, prog, []*Tensor{row}, []*Tensor{emitP}, nil) }) {
		t.Fatal("the chain ran serially at width 2")
	}
	SetMaxWorkers(1)
	emitS := New(m, n)
	serial := ChainInto(nil, x, prog, []*Tensor{row}, []*Tensor{emitS}, nil)
	SetMaxWorkers(0)
	if !bitEqual(pooled, serial) || !bitEqual(emitP, emitS) {
		t.Fatal("serial and pooled chain execution disagree")
	}
}

// TestLinearChainBitExact checks the fused dense-lead path (GEMM + bias +
// tape in one streaming pass) against the unfused composition, including
// warm arena buffers with stale data.
func TestLinearChainBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ar := NewArena()
	for _, s := range [][3]int{{1, 1, 1}, {7, 13, 17}, {64, 300, 64}, {130, 5, 12}} {
		m, k, n := s[0], s[1], s[2]
		x := Rand(rng, 1, m, k)
		w := Rand(rng, 1, n, k)
		bias := Rand(rng, 1, n)
		scale := Rand(rng, 1, 1)
		prog := mustCompileChain(t, []Instr{
			{Op: ChainMul, Arg: 0, Src: SrcArg},
			{Op: ChainEmit, Arg: 0},
			{Op: ChainReLU},
		}, []int{m, n}, [][]int{scale.Shape()})

		pre := MulInto(nil, LinearInto(nil, x, w, bias, nil), scale, nil)
		want := ReLUInto(nil, pre, nil)
		for pass := 0; pass < 3; pass++ {
			emit := ar.NewNoZero(m, n)
			got := LinearChainInto(nil, x, w, bias, prog, []*Tensor{scale}, []*Tensor{emit}, ar)
			if !bitEqual(got, want) || !bitEqual(emit, pre) {
				t.Fatalf("LinearChainInto %dx%dx%d pass %d differs from unfused", m, k, n, pass)
			}
			ar.Release(emit)
			ar.Release(got)
		}
		// nil program degrades to LinearInto.
		if got := LinearChainInto(nil, x, w, bias, nil, nil, nil, nil); !bitEqual(got, LinearInto(nil, x, w, bias, nil)) {
			t.Fatal("nil-program LinearChainInto differs from LinearInto")
		}
	}
}

// TestCompileChainRejectsMalformedTapes covers the validator: undeclared
// operands, register reads before any save, duplicate emits, and operand
// shapes outside the broadcast vocabulary.
func TestCompileChainRejectsMalformedTapes(t *testing.T) {
	shape := []int{3, 7}
	cases := []struct {
		name   string
		instrs []Instr
		args   [][]int
	}{
		{"load_before_save", []Instr{{Op: ChainLoad, Arg: 0}}, nil},
		{"srcreg_before_save", []Instr{{Op: ChainAdd, Arg: 0, Src: SrcReg}}, nil},
		{"undeclared_arg", []Instr{{Op: ChainAdd, Arg: 2, Src: SrcArg}}, [][]int{{7}}},
		{"duplicate_emit", []Instr{{Op: ChainEmit, Arg: 0}, {Op: ChainReLU}, {Op: ChainEmit, Arg: 0}}, nil},
		{"bad_arg_shape", []Instr{{Op: ChainAdd, Arg: 0, Src: SrcArg}}, [][]int{{2}}},
		{"save_other_reg_then_load", []Instr{{Op: ChainSave, Arg: 1}, {Op: ChainLoad, Arg: 0}}, nil},
	}
	for _, c := range cases {
		if _, err := CompileChain(c.instrs, shape, c.args); err == nil {
			t.Errorf("%s: CompileChain accepted a malformed tape", c.name)
		}
	}
	// Sanity: the empty tape and a well-formed tape compile.
	if _, err := CompileChain(nil, shape, nil); err != nil {
		t.Errorf("empty tape rejected: %v", err)
	}
	if _, err := CompileChain([]Instr{
		{Op: ChainSave, Arg: 0},
		{Op: ChainExp},
		{Op: ChainSub, Arg: 0, Src: SrcReg, Rev: true},
		{Op: ChainSqrt},
	}, shape, nil); err != nil {
		t.Errorf("well-formed tape rejected: %v", err)
	}
}

// TestBatchNormChainBitExact holds the streamed batch-norm lead to the two
// passes it replaces — normalise the whole tensor (the formula restated
// here), then RunInPlace the tape over it — on warm, NaN-poisoned arena
// buffers: batch 1 and 8, planes smaller and larger than the walker's
// sub-chunk, the tapes W&D's groups lower to plus one with registers and an
// Emit, serial and pooled. A nil program is plain BatchNorm2DInto.
func TestBatchNormChainBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const c, eps = 6, float32(1e-5)
	gamma, beta, mean := Rand(rng, 1, c), Rand(rng, 1, c), Rand(rng, 1, c)
	variance := randVariance(rng, c)
	ar := NewArena()
	if 3*5 >= tapeBlock || 37*41 <= tapeBlock {
		t.Fatalf("the planes must lie under and over the %d-element sub-chunk", tapeBlock)
	}
	// The smallest batch of 37×41 planes whose plain pass, one streamed
	// element each, the fan-out rule splits at width 2.
	wide := int(2*nsHandOff/nsStream)/(c*37*41) + 1
	for _, batch := range []int{1, wide} {
		for _, hw := range [][2]int{{3, 5}, {37, 41}} {
			shape := []int{batch, c, hw[0], hw[1]}
			x := Rand(rng, 2, shape...)
			res, row := Rand(rng, 1, shape...), Rand(rng, 1, hw[1])
			normed := New(shape...)
			plane := hw[0] * hw[1]
			for i, v := range x.data {
				ch := i / plane % c
				inv := gamma.data[ch] / sqrt32(variance.data[ch]+eps)
				normed.data[i] = (v-mean.data[ch])*inv + beta.data[ch]
			}
			for _, tc := range []struct {
				name   string
				instrs []Instr
				args   []*Tensor
			}{
				{"relu", []Instr{{Op: ChainReLU}}, nil},
				{"add relu", []Instr{{Op: ChainAdd, Arg: 0, Src: SrcArg}, {Op: ChainReLU}}, []*Tensor{res}},
				{"add rev relu", []Instr{{Op: ChainAdd, Arg: 0, Src: SrcArg, Rev: true}, {Op: ChainReLU}}, []*Tensor{res}},
				{"regs emit", []Instr{
					{Op: ChainSave, Arg: 0},
					{Op: ChainAdd, Arg: 0, Src: SrcArg},
					{Op: ChainEmit, Arg: 0},
					{Op: ChainReLU},
					{Op: ChainSave, Arg: 1},
					{Op: ChainLoad, Arg: 0},
					{Op: ChainMul, Arg: 1, Src: SrcArg},
					{Op: ChainSub, Arg: 1, Src: SrcReg, Rev: true},
				}, []*Tensor{res, row}},
			} {
				shapes := make([][]int, len(tc.args))
				for i, a := range tc.args {
					shapes[i] = a.shape
				}
				prog := mustCompileChain(t, tc.instrs, shape, shapes)
				want := normed.Clone()
				var wantOuts, outs []*Tensor
				for range prog.NumOuts() {
					wantOuts = append(wantOuts, New(shape...))
				}
				prog.RunInPlace(want, tc.args, wantOuts)
				for _, workers := range []int{1, 2} {
					SetMaxWorkers(workers)
					poisonArena(ar)
					outs = outs[:0]
					for range prog.NumOuts() {
						outs = append(outs, ar.NewNoZero(shape...))
					}
					var got, plain *Tensor
					pooled := fannedOut(func() { got = BatchNorm2DChainInto(nil, x, gamma, beta, mean, variance, eps, prog, tc.args, outs, ar) })
					pooled = fannedOut(func() { plain = BatchNorm2DInto(nil, x, gamma, beta, mean, variance, eps, ar) }) && pooled
					if workers == 2 && batch == wide && hw[0] == 37 && !pooled {
						t.Errorf("%v %s: ran serially at width 2", shape, tc.name)
					}
					SetMaxWorkers(0)
					if !sameBits(got, want) || !sameBits(plain, normed) {
						t.Fatalf("%v %s (workers %d): streamed batch-norm differs from the two passes", shape, tc.name, workers)
					}
					for i := range outs {
						if !sameBits(outs[i], wantOuts[i]) {
							t.Fatalf("%v %s (workers %d): emit slot %d differs from the two passes", shape, tc.name, workers, i)
						}
						ar.Release(outs[i])
					}
					ar.Release(got)
					ar.Release(plain)
				}
			}
		}
	}
}

// sameBits is bit equality, −0 ≠ +0 and NaN = NaN of the same pattern.
func sameBits(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if math.Float32bits(a.data[i]) != math.Float32bits(b.data[i]) {
			return false
		}
	}
	return true
}
