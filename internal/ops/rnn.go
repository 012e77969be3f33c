package ops

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/tensor"
)

func init() {
	Register(&Def{
		Kind:   "lstm",
		Anchor: true,
		// lstm(x(B,T,In), wx(4H,In), wh(4H,H), bias(4H)) runs one LSTM layer
		// over the full sequence from zero initial state. With attr
		// last_only=1 the output is the final hidden state (B,H); otherwise
		// the full hidden sequence (B,T,H).
		Infer: func(attrs graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("lstm", in, 4); err != nil {
				return nil, err
			}
			if err := wantRank("lstm", in, 0, 3); err != nil {
				return nil, err
			}
			b, t, inDim := in[0][0], in[0][1], in[0][2]
			if len(in[1]) != 2 || in[1][1] != inDim || in[1][0]%4 != 0 {
				return nil, fmt.Errorf("ops: lstm wx shape %v incompatible with input dim %d", in[1], inDim)
			}
			h := in[1][0] / 4
			if len(in[2]) != 2 || in[2][0] != 4*h || in[2][1] != h {
				return nil, fmt.Errorf("ops: lstm wh shape %v, want [%d %d]", in[2], 4*h, h)
			}
			if len(in[3]) != 1 || in[3][0] != 4*h {
				return nil, fmt.Errorf("ops: lstm bias shape %v, want [%d]", in[3], 4*h)
			}
			if attrs.Int("last_only", 0) != 0 {
				return []int{b, h}, nil
			}
			return []int{b, t, h}, nil
		},
		Cost: func(attrs graph.Attrs, in [][]int, out []int) Cost {
			b, t, inDim := float64(in[0][0]), in[0][1], float64(in[0][2])
			h := float64(in[1][0] / 4)
			perStepFLOPs := 2*b*4*h*(inDim+h) + 30*b*h // gate GEMMs + pointwise
			perStepBytes := 4 * (4*h*(inDim+h) + 8*b*h)
			return Cost{
				FLOPs:       float64(t) * perStepFLOPs,
				Bytes:       float64(t) * perStepBytes,
				Parallelism: b * 4 * h, // per-step independent gate elements
				Launches:    2,         // fused gate GEMM + fused pointwise, per step
				SeqSteps:    t,
			}
		},
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.LSTMSeqInto(nil, in[0], in[1], in[2], in[3], attrs.Int("last_only", 0) != 0, ar)
		},
	})

	Register(&Def{
		Kind:   "gru",
		Anchor: true,
		// gru(x(B,T,In), wx(3H,In), wh(3H,H), bias(3H)); same conventions as
		// lstm.
		Infer: func(attrs graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("gru", in, 4); err != nil {
				return nil, err
			}
			if err := wantRank("gru", in, 0, 3); err != nil {
				return nil, err
			}
			b, t, inDim := in[0][0], in[0][1], in[0][2]
			if len(in[1]) != 2 || in[1][1] != inDim || in[1][0]%3 != 0 {
				return nil, fmt.Errorf("ops: gru wx shape %v incompatible with input dim %d", in[1], inDim)
			}
			h := in[1][0] / 3
			if len(in[2]) != 2 || in[2][0] != 3*h || in[2][1] != h {
				return nil, fmt.Errorf("ops: gru wh shape %v, want [%d %d]", in[2], 3*h, h)
			}
			if len(in[3]) != 1 || in[3][0] != 3*h {
				return nil, fmt.Errorf("ops: gru bias shape %v, want [%d]", in[3], 3*h)
			}
			if attrs.Int("last_only", 0) != 0 {
				return []int{b, h}, nil
			}
			return []int{b, t, h}, nil
		},
		Cost: func(attrs graph.Attrs, in [][]int, out []int) Cost {
			b, t, inDim := float64(in[0][0]), in[0][1], float64(in[0][2])
			h := float64(in[1][0] / 3)
			perStepFLOPs := 2*b*3*h*(inDim+h) + 24*b*h
			perStepBytes := 4 * (3*h*(inDim+h) + 6*b*h)
			return Cost{
				FLOPs:       float64(t) * perStepFLOPs,
				Bytes:       float64(t) * perStepBytes,
				Parallelism: b * 3 * h,
				Launches:    2,
				SeqSteps:    t,
			}
		},
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.GRUSeqInto(nil, in[0], in[1], in[2], in[3], attrs.Int("last_only", 0) != 0, ar)
		},
	})
}
