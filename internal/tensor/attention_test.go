package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// attentionRef is AttentionInto composed from per-head copies: qₕ, kₕ and
// vₕ copied out of qkv, scores by MatMulNaive against kₕᵀ, a separate
// scaling pass, softmaxRowsRef and the context by MatMulNaive, copied back
// into its head's columns.
func attentionRef(qkv *Tensor, heads int, scale float32) *Tensor {
	b, t, d := qkv.shape[0], qkv.shape[1], qkv.shape[2]/3
	hd := d / heads
	ctx := New(b, t, d)
	for bi := 0; bi < b; bi++ {
		for h := 0; h < heads; h++ {
			q, k, v := New(t, hd), New(t, hd), New(t, hd)
			for r := 0; r < t; r++ {
				row := qkv.data[(bi*t+r)*3*d:]
				copy(q.data[r*hd:(r+1)*hd], row[h*hd:])
				copy(k.data[r*hd:(r+1)*hd], row[d+h*hd:])
				copy(v.data[r*hd:(r+1)*hd], row[2*d+h*hd:])
			}
			scores := MatMulNaive(q, Transpose2DInto(nil, k, nil))
			for i := range scores.data {
				scores.data[i] *= scale
			}
			attn := New(t, t)
			softmaxRowsRef(attn.data, scores.data, t, 0, t)
			c := MatMulNaive(attn, v)
			for r := 0; r < t; r++ {
				copy(ctx.data[(bi*t+r)*d+h*hd:(bi*t+r)*d+(h+1)*hd], c.data[r*hd:])
			}
		}
	}
	return ctx
}

// TestAttentionBitExact pins AttentionInto to attentionRef bit for bit over
// 1, 2 and 8 heads, sequence lengths 1, 7, 64 and 65 (a partial last panel of
// kₕᵀ and a partial last 4-row tile) and head widths 4, 12 and 64 (a partial
// panel of vₕ, one panel and a half, whole panels), at batch 2 for the short
// sequences and 1 for the long ones: from no arena, from a NaN-poisoned
// arena and again from its recycled buffers, and into a NaN-filled
// destination, pooled and serial. The operand is a window of a NaN-filled
// array, so a head read past its columns or its rows would show.
func TestAttentionBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	nan := float32(math.NaN())
	for _, heads := range []int{1, 2, 8} {
		for _, seq := range []int{1, 7, 64, 65} {
			for _, hd := range []int{4, 12, 64} {
				b, d := 2, heads*hd
				if seq >= 64 {
					b = 1
				}
				qkv := nanWindow(Rand(rng, 1, b, seq, 3*d))
				scale := float32(1 / math.Sqrt(float64(hd)))
				want := attentionRef(qkv, heads, scale)
				for _, workers := range []int{2, 1} {
					SetMaxWorkers(workers)
					var got *Tensor
					// Eight heads of 64 or 65 tokens are over two hand-offs
					// of work at any head width here.
					if pooled := fannedOut(func() { got = AttentionInto(nil, qkv, heads, scale, nil) }); workers == 2 && heads == 8 && seq >= 64 && !pooled {
						t.Errorf("heads=8 T=%d hd=%d: ran serially at width 2", seq, hd)
					}
					if !bitEqual(got, want) {
						t.Errorf("heads=%d T=%d hd=%d workers=%d: differs from the per-head reference (max |Δ| %g)", heads, seq, hd, workers, MaxAbsDiff(got, want))
					}
					ar := NewArena()
					poisonArena(ar)
					for pass := 0; pass < 2; pass++ {
						got := AttentionInto(nil, qkv, heads, scale, ar)
						if !bitEqual(got, want) {
							t.Errorf("heads=%d T=%d hd=%d workers=%d: arena pass %d differs from the per-head reference", heads, seq, hd, workers, pass)
						}
						ar.Release(got)
					}
					dst := ar.NewNoZero(b, seq, d)
					for i := range dst.data {
						dst.data[i] = nan
					}
					if got := AttentionInto(dst, qkv, heads, scale, ar); got != dst || !bitEqual(got, want) {
						t.Errorf("heads=%d T=%d hd=%d workers=%d: into a NaN destination differs from the per-head reference", heads, seq, hd, workers)
					}
				}
				SetMaxWorkers(0)
			}
		}
	}
}
