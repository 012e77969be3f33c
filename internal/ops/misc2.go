package ops

import (
	"duet/internal/graph"
	"duet/internal/tensor"
)

func init() {
	Register(&Def{
		Kind: "reverse_time",
		// reverse_time(x(B,T,D)) flips the sequence axis — the backward
		// pass of a bidirectional RNN reads the sequence reversed.
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("reverse_time", in, 1); err != nil {
				return nil, err
			}
			if err := wantRank("reverse_time", in, 0, 3); err != nil {
				return nil, err
			}
			return cloneShape(in[0]), nil
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			n := numel(out)
			return Cost{Bytes: 8 * n, Parallelism: n, Launches: 1, SeqSteps: 1}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor) *tensor.Tensor {
			return reverseTime(in[0], nil)
		},
		ExecArena: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return reverseTime(in[0], ar)
		},
	})

	Register(&Def{
		Kind: "avgpool2d",
		// avgpool2d(x(N,C,H,W)) with attrs kernel, stride, pad. Padding
		// cells are excluded from the divisor (count_include_pad=false).
		Infer: func(attrs graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("avgpool2d", in, 1); err != nil {
				return nil, err
			}
			if err := wantRank("avgpool2d", in, 0, 4); err != nil {
				return nil, err
			}
			k := attrs.Int("kernel", 2)
			fake := []int{in[0][1], in[0][1], k, k}
			out, err := convOutShape("avgpool2d", attrs, in[0], fake)
			if err != nil {
				return nil, err
			}
			out[1] = in[0][1]
			return out, nil
		},
		Cost: func(attrs graph.Attrs, in [][]int, out []int) Cost {
			k := float64(attrs.Int("kernel", 2))
			outN := numel(out)
			return Cost{
				FLOPs:       outN * k * k,
				Bytes:       4 * (numel(in[0]) + outN),
				Parallelism: outN,
				Launches:    1,
				SeqSteps:    1,
			}
		},
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor) *tensor.Tensor {
			return tensor.AvgPool2DInto(nil, in[0], attrs.Int("kernel", 2), attrs.Int("stride", 1), attrs.Int("pad", 0), nil)
		},
		ExecArena: func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.AvgPool2DInto(nil, in[0], attrs.Int("kernel", 2), attrs.Int("stride", 1), attrs.Int("pad", 0), ar)
		},
	})
}

// reverseTime flips the sequence axis of a (B,T,D) tensor.
func reverseTime(x *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	b, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	out := ar.NewNoZero(b, t, d)
	for r := 0; r < b; r++ {
		for s := 0; s < t; s++ {
			src := x.Data()[(r*t+s)*d : (r*t+s+1)*d]
			dst := out.Data()[(r*t+(t-1-s))*d : (r*t+(t-s))*d]
			copy(dst, src)
		}
	}
	return out
}
