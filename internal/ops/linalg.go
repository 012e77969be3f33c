package ops

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/tensor"
)

func init() {
	Register(&Def{
		Kind:   "dense",
		Anchor: true,
		// dense(x(B,K), w(N,K)[, bias(N)]) -> (B,N); the standard linear
		// layer convention (PyTorch nn.Linear).
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("dense", in, 2, 3); err != nil {
				return nil, err
			}
			if err := wantRank("dense", in, 0, 2); err != nil {
				return nil, err
			}
			if err := wantRank("dense", in, 1, 2); err != nil {
				return nil, err
			}
			b, k := in[0][0], in[0][1]
			n, k2 := in[1][0], in[1][1]
			if k != k2 {
				return nil, fmt.Errorf("ops: dense inner dims differ: x %v, w %v", in[0], in[1])
			}
			if len(in) == 3 && (len(in[2]) != 1 || in[2][0] != n) {
				return nil, fmt.Errorf("ops: dense bias shape %v, want [%d]", in[2], n)
			}
			return []int{b, n}, nil
		},
		Cost: func(_ graph.Attrs, in [][]int, out []int) Cost {
			b, k := float64(in[0][0]), float64(in[0][1])
			n := float64(in[1][0])
			return Cost{
				FLOPs:       2 * b * k * n,
				Bytes:       4 * (b*k + k*n + b*n), // weight streaming dominates at B=1 (GEMV)
				Parallelism: b * n,
				Launches:    1,
				SeqSteps:    1,
			}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			var bias *tensor.Tensor
			if len(in) == 3 {
				bias = in[2]
			}
			return tensor.LinearInto(nil, in[0], in[1], bias, ar)
		},
	})

	Register(&Def{
		Kind:   "matmul",
		Anchor: true,
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("matmul", in, 2); err != nil {
				return nil, err
			}
			if err := wantRank("matmul", in, 0, 2); err != nil {
				return nil, err
			}
			if err := wantRank("matmul", in, 1, 2); err != nil {
				return nil, err
			}
			if in[0][1] != in[1][0] {
				return nil, fmt.Errorf("ops: matmul inner dims differ: %v × %v", in[0], in[1])
			}
			return []int{in[0][0], in[1][1]}, nil
		},
		Cost: func(_ graph.Attrs, in [][]int, out []int) Cost {
			m, k := float64(in[0][0]), float64(in[0][1])
			n := float64(in[1][1])
			return Cost{
				FLOPs:       2 * m * k * n,
				Bytes:       4 * (m*k + k*n + m*n),
				Parallelism: m * n,
				Launches:    1,
				SeqSteps:    1,
			}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.MatMulInto(nil, in[0], in[1], ar)
		},
	})

	Register(&Def{
		Kind:   "batch_matmul",
		Anchor: true,
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("batch_matmul", in, 2); err != nil {
				return nil, err
			}
			if err := wantRank("batch_matmul", in, 0, 3); err != nil {
				return nil, err
			}
			if err := wantRank("batch_matmul", in, 1, 3); err != nil {
				return nil, err
			}
			if in[0][0] != in[1][0] || in[0][2] != in[1][1] {
				return nil, fmt.Errorf("ops: batch_matmul shape mismatch: %v × %v", in[0], in[1])
			}
			return []int{in[0][0], in[0][1], in[1][2]}, nil
		},
		Cost: func(_ graph.Attrs, in [][]int, out []int) Cost {
			b, m, k := float64(in[0][0]), float64(in[0][1]), float64(in[0][2])
			n := float64(in[1][2])
			return Cost{
				FLOPs:       2 * b * m * k * n,
				Bytes:       4 * b * (m*k + k*n + m*n),
				Parallelism: b * m * n,
				Launches:    1,
				SeqSteps:    1,
			}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.BatchMatMulInto(nil, in[0], in[1], ar)
		},
	})

	Register(&Def{
		Kind: "transpose",
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("transpose", in, 1); err != nil {
				return nil, err
			}
			if err := wantRank("transpose", in, 0, 2); err != nil {
				return nil, err
			}
			return []int{in[0][1], in[0][0]}, nil
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			n := numel(out)
			return Cost{Bytes: 8 * n, Parallelism: n, Launches: 1, SeqSteps: 1}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.Transpose2DInto(nil, in[0], ar)
		},
	})
}
