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

func sigmoidRef(x float32) float64 { return 1 / (1 + math.Exp(-float64(x))) }

// lstmRowsRef and gruRowsRef are the gate passes as they were written
// before the transcendentals were batched: one hidden unit at a time, one
// math.Exp per sigmoid and one math.Tanh per tanh. They are the oracle the
// chunked passes are held to; LSTMCell and GRUCell call the passes under
// test, so the step-by-step oracle of TestRNNSeqBitExact cannot see a gate
// bug.
func lstmRowsRef(gx []float32, ldx int, gh, h, c, seq []float32, lds, hd, lo, hi int) {
	for r := lo; r < hi; r++ {
		xg := gx[r*ldx : r*ldx+4*hd]
		hg := gh[r*4*hd : (r+1)*4*hd]
		cRow := c[r*hd : (r+1)*hd]
		hRow := h[r*hd : (r+1)*hd]
		dst := hRow
		if seq != nil {
			dst = seq[r*lds : r*lds+hd]
		}
		for j := 0; j < hd; j++ {
			in := sigmoidRef(xg[j] + hg[j])
			fg := sigmoidRef(xg[hd+j] + hg[hd+j])
			cc := math.Tanh(float64(xg[2*hd+j] + hg[2*hd+j]))
			ot := sigmoidRef(xg[3*hd+j] + hg[3*hd+j])
			cv := fg*float64(cRow[j]) + in*cc
			cRow[j] = float32(cv)
			hv := float32(ot * math.Tanh(cv))
			hRow[j], dst[j] = hv, hv
		}
	}
}

func gruRowsRef(gx []float32, ldx int, gh, h, _, seq []float32, lds, hd, lo, hi int) {
	for r := lo; r < hi; r++ {
		xg := gx[r*ldx : r*ldx+3*hd]
		hg := gh[r*3*hd : (r+1)*3*hd]
		hRow := h[r*hd : (r+1)*hd]
		dst := hRow
		if seq != nil {
			dst = seq[r*lds : r*lds+hd]
		}
		for j := 0; j < hd; j++ {
			rs := sigmoidRef(xg[j] + hg[j])
			zu := sigmoidRef(xg[hd+j] + hg[hd+j])
			nw := math.Tanh(float64(xg[2*hd+j]) + rs*float64(hg[2*hd+j]))
			hv := float32((1-zu)*nw + zu*float64(hRow[j]))
			hRow[j], dst[j] = hv, hv
		}
	}
}

// TestRNNRowsMatchScalarReference holds lstmRows and gruRows to the
// per-unit references bit for bit (sameFloat) at hidden sizes around a
// vector group and a chunk and at the zoo's 320, for one row and eight: the
// updated h, c and the stored sequence row, with the pass run over rows
// [1, B) only, so row 0 must come out untouched. Pre-activations and state
// are drawn at scales that keep tanh in its rational branch, straddle
// 0.625, saturate it and send exp past ±700, with ±Inf, NaN and the
// regime edges among them.
func TestRNNRowsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, tc := range []struct {
		cell *rnnCell
		ref  rnnRows
	}{{&lstmCell, lstmRowsRef}, {&gruCell, gruRowsRef}} {
		for _, hd := range []int{1, 3, 4, 5, 63, 64, 65, 320} {
			for _, b := range []int{1, 8} {
				for _, scale := range []float64{0.3, 3, 60, 1000} {
					n := tc.cell.gates * hd
					ldx, lds := n+3, hd+2 // row strides of a (B,T,·) view
					gx := regimeValues(rng, b*ldx, scale)
					gh := regimeValues(rng, b*n, scale)
					state := regimeValues(rng, 2*b*hd, scale)
					run := func(rows rnnRows, withSeq bool) (h, c, seq []float32) {
						h = append([]float32(nil), state[:b*hd]...)
						c = append([]float32(nil), state[b*hd:]...)
						if withSeq {
							seq = make([]float32, b*lds)
						}
						rows(gx, ldx, gh, h, c, seq, lds, hd, min(1, b-1), b)
						return h, c, seq
					}
					for _, withSeq := range []bool{false, true} {
						gotH, gotC, gotSeq := run(tc.cell.rows, withSeq)
						wantH, wantC, wantSeq := run(tc.ref, withSeq)
						for _, v := range []struct {
							what      string
							got, want []float32
						}{{"h", gotH, wantH}, {"c", gotC, wantC}, {"seq", gotSeq, wantSeq}} {
							for i := range v.got {
								if !sameFloat(v.got[i], v.want[i]) {
									t.Fatalf("%s H=%d B=%d scale=%g seq=%v: %s[%d] = %#x, want %#x", tc.cell.name, hd, b, scale, withSeq,
										v.what, i, math.Float32bits(v.got[i]), math.Float32bits(v.want[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}
