package tensor

import (
	"fmt"
	"sync/atomic"
)

// AttentionInto computes the scaled dot-product core of multi-head
// self-attention. qkv is (B, T, 3D): each token row holds its query, key and
// value projections side by side — the one x·wqkvᵀ product over a stacked
// [wq; wk; wv] weight, PyTorch's in_proj_weight layout — and head h owns
// columns [h·hd, (h+1)·hd) of each third, hd = D/heads. For every batch row
// and head it writes softmax(scale · qₕ·kₕᵀ)·vₕ to columns [h·hd, (h+1)·hd)
// of ctx (B, T, D; taken from ar when nil, otherwise overwritten).
//
// The heads are read in place by stride and spread over the worker pool;
// each head's two products run serially through the packed kernel, so every
// element keeps the single k-ascending accumulator of MatMulNaive and the
// result is bit-identical to copying each head out and composing MatMulInto,
// ScaleInto and SoftmaxInto.
func AttentionInto(ctx, qkv *Tensor, heads int, scale float32, ar *Arena) *Tensor {
	if len(qkv.shape) != 3 || heads < 1 || qkv.shape[2]%(3*heads) != 0 {
		panic(fmt.Sprintf("tensor: Attention needs a (B, T, 3D) operand with D divisible by %d heads, got %v", heads, qkv.shape))
	}
	b, t, d := qkv.shape[0], qkv.shape[1], qkv.shape[2]/3
	ctx = intoShape(ctx, []int{b, t, d}, ar, "AttentionInto")
	n, hd := b*heads, d/heads
	if n == 0 || t == 0 || hd == 0 {
		return ctx
	}
	var next atomic.Int64
	// Each item is two T×T×hd products and a softmax over T×T scores.
	if parts, _ := fanOut(n, float64(n*t*t)*(2*float64(hd)*nsMAC+nsTranscendental+nsStream)); parts > 1 {
		// One task per part, each with its own scratch, claiming (batch
		// row, head) items from the shared cursor so uneven progress
		// balances.
		ParallelForChunked(parts, parts, 1, func(int, int) {
			attentionHeads(ctx.data, qkv.data, t, d, heads, scale, n, &next, ar)
		})
		return ctx
	}
	attentionHeads(ctx.data, qkv.data, t, d, heads, scale, n, &next, ar)
	return ctx
}

// attentionHeads claims (batch row, head) items of AttentionInto from next
// until all n are taken and runs them through one scratch buffer: the T×T
// scores and the head's kₕᵀ and vₕ, packed as B operands straight from
// qkv's strided columns.
func attentionHeads(ctx, qkv []float32, t, d, heads int, scale float32, n int, next *atomic.Int64, ar *Arena) {
	hd, ld := d/heads, 3*d
	kSize := packedSize(hd, t)
	scratch := ar.NewNoZero(t*t + kSize + packedSize(t, hd))
	buf := scratch.data
	scores, kp, vp := buf[:t*t], buf[t*t:t*t+kSize], buf[t*t+kSize:]
	for it := int(next.Add(1) - 1); it < n; it = int(next.Add(1) - 1) {
		bi, h := it/heads, it%heads
		rows := qkv[bi*t*ld:]
		packBTransposed(kp, rows[d+h*hd:], hd, t, ld, 0, packedPanels(t))
		packBRowMajor(vp, rows[2*d+h*hd:], t, hd, ld, 0, packedPanels(hd))
		clear(scores)
		gemmBlock(scores, t, rows[h*hd:], ld, kp, 0, t, packedPanels(t), t, hd)
		softmaxRows(scores, scores, t, scale, 0, t)
		c := ctx[bi*t*d+h*hd:]
		for r := 0; r < t; r++ {
			clear(c[r*d : r*d+hd])
		}
		gemmBlock(c, d, scores, t, vp, 0, t, packedPanels(hd), hd, t)
	}
	ar.Release(scratch)
}
