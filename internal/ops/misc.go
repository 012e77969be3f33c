package ops

import (
	"fmt"

	"duet/internal/graph"
	"duet/internal/tensor"
)

func init() {
	Register(&Def{
		Kind:        "softmax",
		Elementwise: true,
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("softmax", in, 1); err != nil {
				return nil, err
			}
			if len(in[0]) == 0 {
				return nil, fmt.Errorf("ops: softmax of a scalar")
			}
			return cloneShape(in[0]), nil
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			n := numel(out)
			return Cost{FLOPs: 6 * n, Bytes: 8 * n, Parallelism: n, Launches: 1, SeqSteps: 1}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.SoftmaxInto(nil, in[0], ar)
		},
	})

	Register(&Def{
		Kind:        "layernorm",
		Elementwise: true,
		// layernorm(x, gamma(D), beta(D)) with attr eps_micro.
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("layernorm", in, 3); err != nil {
				return nil, err
			}
			if len(in[0]) == 0 {
				return nil, fmt.Errorf("ops: layernorm of a scalar")
			}
			d := in[0][len(in[0])-1]
			if len(in[1]) != 1 || in[1][0] != d || len(in[2]) != 1 || in[2][0] != d {
				return nil, fmt.Errorf("ops: layernorm gamma/beta must be [%d], got %v/%v", d, in[1], in[2])
			}
			return cloneShape(in[0]), nil
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			n := numel(out)
			return Cost{FLOPs: 8 * n, Bytes: 8 * n, Parallelism: n, Launches: 1, SeqSteps: 1}
		},
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			eps := float32(attrs.Int("eps_micro", 10)) * 1e-6
			return tensor.LayerNormInto(nil, in[0], in[1], in[2], eps, ar)
		},
	})

	Register(&Def{
		Kind: "concat",
		// concat(a, b, ...) with attr axis.
		Infer: func(attrs graph.Attrs, in [][]int) ([]int, error) {
			if len(in) < 1 {
				return nil, fmt.Errorf("ops: concat needs at least one input")
			}
			axis := attrs.Int("axis", -1)
			rank := len(in[0])
			if axis < 0 {
				axis += rank
			}
			if axis < 0 || axis >= rank {
				return nil, fmt.Errorf("ops: concat axis %d out of range for rank %d", attrs.Int("axis", -1), rank)
			}
			out := cloneShape(in[0])
			out[axis] = 0
			for _, s := range in {
				if len(s) != rank {
					return nil, fmt.Errorf("ops: concat rank mismatch: %v vs %v", s, in[0])
				}
				for d := 0; d < rank; d++ {
					if d != axis && s[d] != in[0][d] {
						return nil, fmt.Errorf("ops: concat shape mismatch at dim %d: %v vs %v", d, s, in[0])
					}
				}
				out[axis] += s[axis]
			}
			return out, nil
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			n := numel(out)
			return Cost{Bytes: 8 * n, Parallelism: n, Launches: 1, SeqSteps: 1}
		},
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.ConcatInto(nil, attrs.Int("axis", -1), ar, in...)
		},
	})

	Register(&Def{
		Kind: "reshape",
		// reshape(x) with attr shape ([]int, one -1 allowed).
		Infer: func(attrs graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("reshape", in, 1); err != nil {
				return nil, err
			}
			want := attrs.Ints("shape")
			if want == nil {
				return nil, fmt.Errorf("ops: reshape requires a shape attribute")
			}
			total := 1
			for _, d := range in[0] {
				total *= d
			}
			out := cloneShape(want)
			infer, known := -1, 1
			for i, d := range out {
				if d == -1 {
					if infer >= 0 {
						return nil, fmt.Errorf("ops: reshape allows one -1, got %v", want)
					}
					infer = i
				} else {
					known *= d
				}
			}
			if infer >= 0 {
				if known == 0 || total%known != 0 {
					return nil, fmt.Errorf("ops: reshape %v incompatible with %d elements", want, total)
				}
				out[infer] = total / known
				known *= out[infer]
			}
			if known != total {
				return nil, fmt.Errorf("ops: reshape %v incompatible with %d elements", want, total)
			}
			return out, nil
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			// Pure metadata change at runtime.
			return Cost{Parallelism: 1, Launches: 0, SeqSteps: 1}
		},
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor, _ *tensor.Arena) *tensor.Tensor {
			return in[0].Reshape(attrs.Ints("shape")...)
		},
		Alias: true,
	})

	Register(&Def{
		Kind: "flatten",
		// flatten(x) collapses all dims after the first: (B, ...) -> (B, K).
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("flatten", in, 1); err != nil {
				return nil, err
			}
			if len(in[0]) < 1 {
				return nil, fmt.Errorf("ops: flatten of a scalar")
			}
			k := 1
			for _, d := range in[0][1:] {
				k *= d
			}
			return []int{in[0][0], k}, nil
		},
		Cost: func(_ graph.Attrs, _ [][]int, out []int) Cost {
			return Cost{Parallelism: 1, Launches: 0, SeqSteps: 1}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, _ *tensor.Arena) *tensor.Tensor {
			return in[0].Reshape(in[0].Dim(0), -1)
		},
		Alias: true,
	})

	Register(&Def{
		Kind: "embedding",
		// embedding(ids(B,L), table(V,D)) -> (B, L, D); ids carry integer
		// values in float32 storage.
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("embedding", in, 2); err != nil {
				return nil, err
			}
			if err := wantRank("embedding", in, 0, 2); err != nil {
				return nil, err
			}
			if err := wantRank("embedding", in, 1, 2); err != nil {
				return nil, err
			}
			return []int{in[0][0], in[0][1], in[1][1]}, nil
		},
		Cost: func(_ graph.Attrs, in [][]int, out []int) Cost {
			n := numel(out)
			return Cost{Bytes: 8 * n, Parallelism: numel(in[0]), Launches: 1, SeqSteps: 1}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			idsT, table := in[0], in[1]
			ids := make([]int, idsT.Numel())
			for i, v := range idsT.Data() {
				ids[i] = int(v)
			}
			out := tensor.EmbeddingInto(nil, table, ids, ar)
			return out.Reshape(idsT.Dim(0), idsT.Dim(1), table.Dim(1))
		},
	})

	Register(&Def{
		Kind: "cosine_similarity",
		Infer: func(_ graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("cosine_similarity", in, 2); err != nil {
				return nil, err
			}
			if err := wantRank("cosine_similarity", in, 0, 2); err != nil {
				return nil, err
			}
			if !tensor.ShapeEq(in[0], in[1]) {
				return nil, fmt.Errorf("ops: cosine_similarity shapes differ: %v vs %v", in[0], in[1])
			}
			return []int{in[0][0], 1}, nil
		},
		Cost: func(_ graph.Attrs, in [][]int, out []int) Cost {
			n := numel(in[0])
			return Cost{FLOPs: 6 * n, Bytes: 8 * n, Parallelism: float64(in[0][0]), Launches: 1, SeqSteps: 1}
		},
		Exec: func(_ graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return tensor.CosineSimilarityInto(nil, in[0], in[1], ar)
		},
	})

	Register(&Def{
		Kind:   "mha",
		Anchor: true,
		// mha(x(B,T,D), wqkv(3D,D), wo(D,D), bias(D)) with attr heads: fused
		// multi-head self-attention, the Transformer encoder core in MT-DNN.
		// wqkv stacks the query, key and value projections row-wise
		// (PyTorch's in_proj_weight). Mirrors a TVM fused attention kernel
		// group.
		Infer: func(attrs graph.Attrs, in [][]int) ([]int, error) {
			if err := wantInputs("mha", in, 4); err != nil {
				return nil, err
			}
			if err := wantRank("mha", in, 0, 3); err != nil {
				return nil, err
			}
			d := in[0][2]
			heads := attrs.Int("heads", 1)
			if heads < 1 || d%heads != 0 {
				return nil, fmt.Errorf("ops: mha heads %d must divide model dim %d", heads, d)
			}
			if len(in[1]) != 2 || in[1][0] != 3*d || in[1][1] != d {
				return nil, fmt.Errorf("ops: mha wqkv shape %v, want [%d %d]", in[1], 3*d, d)
			}
			if len(in[2]) != 2 || in[2][0] != d || in[2][1] != d {
				return nil, fmt.Errorf("ops: mha wo shape %v, want [%d %d]", in[2], d, d)
			}
			if len(in[3]) != 1 || in[3][0] != d {
				return nil, fmt.Errorf("ops: mha bias shape %v, want [%d]", in[3], d)
			}
			return cloneShape(in[0]), nil
		},
		Cost: func(attrs graph.Attrs, in [][]int, out []int) Cost {
			b, t, d := float64(in[0][0]), float64(in[0][1]), float64(in[0][2])
			return Cost{
				FLOPs:       b * (8*t*d*d + 4*t*t*d),
				Bytes:       4 * (4*d*d + 3*b*t*d + 2*b*t*t),
				Parallelism: b * t * d,
				Launches:    6, // qkv, scores, scale, softmax, context, out-proj + bias
				SeqSteps:    1,
			}
		},
		Exec: func(attrs graph.Attrs, in []*tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
			return mhaForward(in[0], in[1], in[2], in[3], attrs.Int("heads", 1), ar)
		},
	})
}

// mhaForward computes multi-head self-attention for x (B,T,D) with every
// intermediate drawn from ar (nil degrades to plain allocation): one x·wqkvᵀ
// product over all B·T rows, the attention core over its strided heads, and
// the output projection with its bias written straight into the result. The
// pinned weights are packed once and cached across calls.
func mhaForward(x, wqkv, wo, bias *tensor.Tensor, heads int, ar *tensor.Arena) *tensor.Tensor {
	b, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	scale := float32(1 / sqrtf(float64(d/heads)))
	qkv := ar.NewNoZero(b, t, 3*d)
	tensor.LinearInto(qkv.Reshape(b*t, 3*d), x.Reshape(b*t, d), wqkv, nil, ar)
	ctx := tensor.AttentionInto(nil, qkv, heads, scale, ar)
	ar.Release(qkv)
	out := ar.NewNoZero(b, t, d)
	tensor.LinearInto(out.Reshape(b*t, d), ctx.Reshape(b*t, d), wo, bias, ar)
	ar.Release(ctx)
	return out
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 24; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}
