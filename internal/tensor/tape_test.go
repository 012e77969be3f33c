package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duet/internal/ops"
	"duet/internal/tensor"
)

// edgeTensor fills a tensor half with edge values — NaN, both zeros, both
// infinities, subnormals, the ends of the finite range — and half with
// ordinary numbers. One NaN bit pattern only: which of two different NaN
// payloads an operation propagates is the hardware's choice, not the tape's.
func edgeTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	edges := []float32{
		float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		1e-45, -1e-45, 1e-40, -3e-39, math.MaxFloat32, -math.MaxFloat32,
	}
	t := tensor.New(shape...)
	for i := range t.Data() {
		if rng.Intn(2) == 0 {
			t.Data()[i] = edges[rng.Intn(len(edges))]
		} else {
			t.Data()[i] = rng.Float32()*8 - 4
		}
	}
	return t
}

// tile broadcasts a row or scalar operand to the full shape, so the
// registered op can take it as its first operand.
func tile(v *tensor.Tensor, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = v.Data()[i%v.Numel()]
	}
	return t
}

func exec(kind string, in ...*tensor.Tensor) *tensor.Tensor {
	return ops.MustLookup(kind).Exec(nil, in, nil)
}

func sameBits(a, b *tensor.Tensor) (int, bool) {
	for i := range a.Data() {
		if math.Float32bits(a.Data()[i]) != math.Float32bits(b.Data()[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestTapeEdgeValues runs every tape opcode, from every operand source
// (external full / row / scalar, register, the stream itself) in both
// operand orders, over edge values, and compares bit for bit with the
// registered op's Exec on the same operands (a broadcast operand the op
// cannot take first is tiled to full shape). The streams are no multiple of
// the row width or of the walker's sub-chunk, and the parallel chunks cut
// rows, so the division-free row walk restarts mid-row at chunk and
// sub-chunk boundaries.
func TestTapeEdgeValues(t *testing.T) {
	unary := []struct {
		kind string
		op   tensor.ChainOp
	}{
		{"relu", tensor.ChainReLU}, {"sigmoid", tensor.ChainSigmoid}, {"tanh", tensor.ChainTanh},
		{"gelu", tensor.ChainGELU}, {"exp", tensor.ChainExp}, {"sqrt", tensor.ChainSqrt},
	}
	binary := []struct {
		kind string
		op   tensor.ChainOp
	}{
		{"add", tensor.ChainAdd}, {"sub", tensor.ChainSub}, {"mul", tensor.ChainMul},
		{"div", tensor.ChainDiv}, {"maximum", tensor.ChainMaximum},
	}
	rng := rand.New(rand.NewSource(25))
	// The last shape is over two hand-offs of work for the cheapest tape,
	// so every program fans out at width 2.
	for _, shape := range [][]int{{3, 7}, {397, 13}, {5, 1499}, {211, 997}} {
		m, w := shape[0], shape[1]
		if n := m * w; n > tensor.TapeBlock && (n%tensor.TapeBlock == 0 || tensor.TapeBlock%w == 0) {
			t.Fatalf("shape %v: the sub-chunks line up with the rows or the stream", shape)
		}
		x, full := edgeTensor(rng, m, w), edgeTensor(rng, m, w)
		row, scalar := edgeTensor(rng, w), edgeTensor(rng, 1)
		run := func(name string, instrs []tensor.Instr, args []*tensor.Tensor, want *tensor.Tensor) {
			t.Helper()
			shapes := make([][]int, len(args))
			for i, a := range args {
				shapes[i] = a.Shape()
			}
			p, err := tensor.CompileChain(instrs, shape, shapes)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				tensor.SetMaxWorkers(workers)
				before := tensor.FanOuts()
				got := tensor.ChainInto(nil, x, p, args, nil, nil)
				tensor.SetMaxWorkers(0)
				if workers == 2 && m == 211 && tensor.FanOuts() == before {
					t.Errorf("%v %s: ran serially at width 2", shape, name)
				}
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("%v %s (workers %d): element %d is %#x, the registered op gives %#x",
						shape, name, workers, i, math.Float32bits(got.Data()[i]), math.Float32bits(want.Data()[i]))
				}
			}
		}
		for _, u := range unary {
			run(u.kind, []tensor.Instr{{Op: u.op}}, nil, exec(u.kind, x))
		}
		// The register case saves x, moves the stream to s = full - x and
		// then combines the two.
		s := exec("sub", full, x)
		for _, b := range binary {
			for _, rev := range []bool{false, true} {
				name := fmt.Sprintf("%s rev=%v", b.kind, rev)
				pick := func(stream, operand *tensor.Tensor) *tensor.Tensor {
					if rev {
						return exec(b.kind, operand, stream)
					}
					return exec(b.kind, stream, operand)
				}
				fwdOrTiled := func(v *tensor.Tensor) *tensor.Tensor {
					if rev {
						return exec(b.kind, tile(v, m, w), x)
					}
					return exec(b.kind, x, v)
				}
				op := tensor.Instr{Op: b.op, Arg: 0, Src: tensor.SrcArg, Rev: rev}
				run(name+" arg full", []tensor.Instr{op}, []*tensor.Tensor{full}, pick(x, full))
				run(name+" arg row", []tensor.Instr{op}, []*tensor.Tensor{row}, fwdOrTiled(row))
				run(name+" arg scalar", []tensor.Instr{op}, []*tensor.Tensor{scalar}, fwdOrTiled(scalar))
				run(name+" reg", []tensor.Instr{
					{Op: tensor.ChainSave, Arg: 0},
					{Op: tensor.ChainSub, Arg: 0, Src: tensor.SrcArg, Rev: true},
					{Op: b.op, Arg: 0, Src: tensor.SrcReg, Rev: rev},
				}, []*tensor.Tensor{full}, pick(s, x))
				run(name+" cur", []tensor.Instr{{Op: b.op, Src: tensor.SrcCur, Rev: rev}}, nil, exec(b.kind, x, x))
			}
		}
	}
}
