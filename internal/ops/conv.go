package ops

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/tensor"
)

func convOutShape(kind string, attrs graph.Attrs, x, w []int) ([]int, error) {
	stride := attrs.Int("stride", 1)
	pad := attrs.Int("pad", 0)
	if stride < 1 {
		return nil, fmt.Errorf("ops: %s stride must be >= 1, got %d", kind, stride)
	}
	n, cin, h, wd := x[0], x[1], x[2], x[3]
	cout, cin2, kh, kw := w[0], w[1], w[2], w[3]
	if cin != cin2 {
		return nil, fmt.Errorf("ops: %s channel mismatch: x has %d, w expects %d", kind, cin, cin2)
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("ops: %s output empty for x %v, w %v, stride %d, pad %d", kind, x, w, stride, pad)
	}
	return []int{n, cout, oh, ow}, nil
}

func init() {
	Register(&Def{
		Kind:   "conv2d",
		Anchor: true,
		// conv2d(x(N,Cin,H,W), w(Cout,Cin,KH,KW)[, bias(Cout)]) with attrs
		// stride, pad.
		Infer: func(attrs graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("conv2d", in, 2, 3); err != nil {
				return nil, err
			}
			if err := wantRank("conv2d", in, 0, 4); err != nil {
				return nil, err
			}
			if err := wantRank("conv2d", in, 1, 4); err != nil {
				return nil, err
			}
			out, err := convOutShape("conv2d", attrs, in[0], in[1])
			if err != nil {
				return nil, err
			}
			if len(in) == 3 && (len(in[2]) != 1 || in[2][0] != in[1][0]) {
				return nil, fmt.Errorf("ops: conv2d bias shape %v, want [%d]", in[2], in[1][0])
			}
			return out, nil
		},
		Cost: func(attrs graph.Attrs, in [][]int, out []int) Cost {
			cin := float64(in[1][1])
			kh, kw := float64(in[1][2]), float64(in[1][3])
			outN := numel(out)
			return Cost{
				FLOPs:       2 * outN * cin * kh * kw,
				Bytes:       4 * (numel(in[0]) + numel(in[1]) + outN),
				Parallelism: outN,
				Launches:    1,
				SeqSteps:    1,
			}
		},
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			var bias *tensor.Tensor
			if len(in) == 3 {
				bias = in[2]
			}
			return tensor.Conv2DInto(nil, in[0], in[1], bias, attrs.Int("stride", 1), attrs.Int("pad", 0), ar)
		},
	})

	Register(&Def{
		Kind: "maxpool2d",
		Infer: func(attrs graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("maxpool2d", in, 1); err != nil {
				return nil, err
			}
			if err := wantRank("maxpool2d", in, 0, 4); err != nil {
				return nil, err
			}
			k := attrs.Int("kernel", 2)
			fake := []int{in[0][1], in[0][1], k, k} // same-channel kernel
			out, err := convOutShape("maxpool2d", attrs, in[0], fake)
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
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.MaxPool2DInto(nil, in[0], attrs.Int("kernel", 2), attrs.Int("stride", 1), attrs.Int("pad", 0), ar)
		},
	})

	Register(&Def{
		Kind: "global_avg_pool",
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("global_avg_pool", in, 1); err != nil {
				return nil, err
			}
			if err := wantRank("global_avg_pool", in, 0, 4); err != nil {
				return nil, err
			}
			return []int{in[0][0], in[0][1]}, nil
		},
		Cost: func(_ graph.Attrs, in [][]int, out []int) Cost {
			n := numel(in[0])
			return Cost{FLOPs: n, Bytes: 4 * n, Parallelism: numel(out), Launches: 1, SeqSteps: 1}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.GlobalAvgPool2DInto(nil, in[0], ar)
		},
	})

	Register(&Def{
		Kind: "batchnorm2d",
		// Elementwise for costing. It is outside the tape vocabulary, so a
		// conv never absorbs it: under fusion a batch-norm leads its own
		// group and streams the group's tape (tensor.BatchNorm2DChainInto).
		Elementwise: true,
		// batchnorm2d(x, gamma, beta, mean, var) with attr eps_micro (see
		// BatchNormEps).
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("batchnorm2d", in, 5); err != nil {
				return nil, err
			}
			if err := wantRank("batchnorm2d", in, 0, 4); err != nil {
				return nil, err
			}
			c := in[0][1]
			for i := 1; i < 5; i++ {
				if len(in[i]) != 1 || in[i][0] != c {
					return nil, fmt.Errorf("ops: batchnorm2d param %d shape %v, want [%d]", i, in[i], c)
				}
			}
			return cloneShape(in[0]), nil
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			n := numel(out)
			return Cost{FLOPs: 4 * n, Bytes: 8 * n, Parallelism: n, Launches: 1, SeqSteps: 1}
		},
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.BatchNorm2DInto(nil, in[0], in[1], in[2], in[3], in[4], BatchNormEps(attrs), ar)
		},
	})
}

// BatchNormEps is a batchnorm2d node's epsilon, stored as integer
// micro-units in the eps_micro attribute to keep Attrs integer-typed.
func BatchNormEps(attrs graph.Attrs) float32 {
	return float32(attrs.Int("eps_micro", 10)) * 1e-6
}
