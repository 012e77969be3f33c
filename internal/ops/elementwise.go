package ops

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/tensor"
)

// unaryDef builds a registration for a pure elementwise unary operator.
// flopsPerElem approximates transcendental cost (1 for relu, ~4 for tanh).
// f is the op's *Into kernel.
func unaryDef(kind string, flopsPerElem float64, f func(out, t *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor) *Def {
	return &Def{
		Kind:        kind,
		Elementwise: true,
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs(kind, in, 1); err != nil {
				return nil, err
			}
			return cloneShape(in[0]), nil
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			n := numel(out)
			return Cost{FLOPs: flopsPerElem * n, Bytes: 8 * n, Parallelism: n, Launches: 1, SeqSteps: 1}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return f(nil, in[0], ar)
		},
	}
}

// binaryDef builds a registration for an elementwise binary operator with
// trailing-dimension broadcasting of the second operand; f is its *Into
// kernel.
func binaryDef(kind string, f func(out, a, b *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor) *Def {
	return &Def{
		Kind:        kind,
		Elementwise: true,
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs(kind, in, 2); err != nil {
				return nil, err
			}
			a, b := in[0], in[1]
			if tensor.ShapeEq(a, b) {
				return cloneShape(a), nil
			}
			if len(b) == 1 && len(a) > 0 && (b[0] == a[len(a)-1] || b[0] == 1) {
				return cloneShape(a), nil
			}
			return nil, fmt.Errorf("ops: %s cannot broadcast %v with %v", kind, a, b)
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			n := numel(out)
			return Cost{FLOPs: n, Bytes: 12 * n, Parallelism: n, Launches: 1, SeqSteps: 1}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return f(nil, in[0], in[1], ar)
		},
	}
}

func init() {
	Register(unaryDef("relu", 1, tensor.ReLUInto))
	Register(unaryDef("sigmoid", 4, tensor.SigmoidInto))
	Register(unaryDef("tanh", 4, tensor.TanhInto))
	Register(unaryDef("gelu", 8, tensor.GELUInto))
	Register(unaryDef("exp", 4, tensor.ExpInto))
	Register(unaryDef("sqrt", 2, tensor.SqrtInto))
	Register(binaryDef("add", tensor.AddInto))
	Register(binaryDef("sub", tensor.SubInto))
	Register(binaryDef("mul", tensor.MulInto))
	Register(binaryDef("div", tensor.DivInto))
	Register(binaryDef("maximum", tensor.MaximumInto))
}
