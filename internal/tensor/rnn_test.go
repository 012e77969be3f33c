package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// rnnOracle unrolls a layer step by step through LSTMCell / GRUCell from
// zero state, slicing x by hand: the definition the sequence kernel must
// reproduce. It returns the hidden sequence (B,T,H) and the final state.
func rnnOracle(lstm bool, x, wx, wh, bias *Tensor) (seq, last *Tensor) {
	b, t, in := x.shape[0], x.shape[1], x.shape[2]
	hd := wh.shape[1]
	seq = New(b, t, hd)
	h, c := New(b, hd), New(b, hd)
	for step := 0; step < t; step++ {
		xt := New(b, in)
		for r := 0; r < b; r++ {
			copy(xt.data[r*in:(r+1)*in], x.data[(r*t+step)*in:(r*t+step+1)*in])
		}
		if lstm {
			h, c = LSTMCell(xt, h, c, wx, wh, bias)
		} else {
			h = GRUCell(xt, h, wx, wh, bias)
		}
		for r := 0; r < b; r++ {
			copy(seq.data[(r*t+step)*hd:(r*t+step+1)*hd], h.data[r*hd:(r+1)*hd])
		}
	}
	return seq, h
}

// TestRNNSeqBitExact pins LSTMSeqInto / GRUSeqInto to the step-by-step
// oracle with == on every float32: batches of 1, 3 and 8 (serial GEMV,
// leftover rows, whole 4-row tiles and the parallel GEMM and gate pass),
// sequences of 1, 2 and 17 steps, In ≠ H, H on and off the 32-column tile,
// full sequence and last state — each from no arena, a cold arena and a
// recycled one that was filled with NaN, into a stale caller-supplied
// destination, with packed weights from arena scratch and from the pack
// cache, pooled and serial.
func TestRNNSeqBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nan := float32(math.NaN())
	for _, lstm := range []bool{true, false} {
		name, gates, run := "GRUSeqInto", 3, GRUSeqInto
		if lstm {
			name, gates, run = "LSTMSeqInto", 4, LSTMSeqInto
		}
		for _, dim := range []struct {
			in, hd    int
			bs, steps []int
		}{
			{7, 20, []int{1, 3, 8}, []int{1, 2, 17}},
			{130, 96, []int{1, 3, 8}, []int{1, 2, 17}},
			// K = 320 spans two packKC slabs, and at B = 8 the recurrent
			// GEMM itself crosses the parallel cut-off.
			{256, 320, []int{1, 8}, []int{3}},
		} {
			in, hd := dim.in, dim.hd
			wx := Rand(rng, 1, gates*hd, in)
			wh := Rand(rng, 0.5, gates*hd, hd)
			bias := Rand(rng, 1, gates*hd)
			for _, b := range dim.bs {
				for _, steps := range dim.steps {
					x := Rand(rng, 1, b, steps, in)
					wantSeq, wantLast := rnnOracle(lstm, x, wx, wh, bias)
					check := func(what string, lastOnly bool, got *Tensor) {
						t.Helper()
						want := wantSeq
						if lastOnly {
							want = wantLast
						}
						if !bitEqual(got, want) {
							t.Errorf("%s B=%d T=%d In=%d H=%d lastOnly=%v %s: differs from the cell-by-cell oracle (max |Δ| %g)",
								name, b, steps, in, hd, lastOnly, what, MaxAbsDiff(got, want))
						}
					}
					// One arena per shape: cold for the first call, then every
					// pooled buffer poisoned once, then recycled with whatever
					// the previous call left in it.
					ar := NewArena()
					cold := run(nil, x, wx, wh, bias, false, ar)
					check("cold arena", false, cold)
					ar.Release(cold)
					poisonArena(ar)
					for _, workers := range []int{0, 1} {
						SetMaxWorkers(workers)
						for _, lastOnly := range []bool{false, true} {
							check("nil arena", lastOnly, run(nil, x, wx, wh, bias, lastOnly, nil))
							got := run(nil, x, wx, wh, bias, lastOnly, ar)
							check("recycled arena", lastOnly, got)
							ar.Release(got)
							dst := ar.NewNoZero(wantSeq.shape...)
							if lastOnly {
								dst = ar.NewNoZero(wantLast.shape...)
							}
							for i := range dst.data {
								dst.data[i] = nan
							}
							if got := run(dst, x, wx, wh, bias, lastOnly, ar); got != dst {
								t.Errorf("%s did not return the destination it was given", name)
							}
							check("stale destination", lastOnly, dst)
							ar.Release(dst)
						}
					}
					SetMaxWorkers(0)
				}
			}
			// Pinned weights keep their panels: the first call packs and
			// publishes them, the second reads them.
			x := Rand(rng, 1, 3, 5, in)
			wantSeq, _ := rnnOracle(lstm, x, wx, wh, bias)
			wx.MarkPinned()
			wh.MarkPinned()
			for pass := 0; pass < 2; pass++ {
				if got := run(nil, x, wx, wh, bias, false, NewArena()); !bitEqual(got, wantSeq) {
					t.Errorf("%s In=%d H=%d with cached panels, pass %d: differs from the oracle", name, in, hd, pass)
				}
			}
		}
	}
}

func TestRNNSeqShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "not a 4-gate layer")
	LSTMSeqInto(nil, New(1, 2, 3), New(8, 3), New(8, 3), New(8), false, nil)
}

// TestRNNSeqTimeLoopAllocatesNothing holds the sequence kernel to a warm
// allocation count that does not depend on T: whatever a call costs (a few
// headers for the result and the step views), eight times the steps cost
// nothing more. AllocsPerRun measures at GOMAXPROCS 1, so this is the
// serial time loop at every batch size; a step that is handed to the pool
// pays for the hand-off by design.
func TestRNNSeqTimeLoopAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts at random")
	}
	rng := rand.New(rand.NewSource(20))
	for _, tc := range []struct {
		lstm      bool
		b, in, hd int
	}{{true, 1, 256, 320}, {false, 1, 64, 96}, {true, 3, 24, 20}, {false, 8, 96, 128}} {
		gates, run := 3, GRUSeqInto
		if tc.lstm {
			gates, run = 4, LSTMSeqInto
		}
		wx := Rand(rng, 1, gates*tc.hd, tc.in).MarkPinned()
		wh := Rand(rng, 0.5, gates*tc.hd, tc.hd).MarkPinned()
		bias := Rand(rng, 1, gates*tc.hd)
		for _, lastOnly := range []bool{false, true} {
			var counts [2]float64
			for i, steps := range []int{8, 64} {
				x := Rand(rng, 1, tc.b, steps, tc.in)
				ar := NewArena()
				call := func() { ar.Release(run(nil, x, wx, wh, bias, lastOnly, ar)) }
				call()
				counts[i] = testing.AllocsPerRun(10, call)
			}
			if counts[0] != counts[1] {
				t.Errorf("%+v lastOnly=%v: %.0f allocations at T=8 but %.0f at T=64", tc, lastOnly, counts[0], counts[1])
			}
		}
	}
}
