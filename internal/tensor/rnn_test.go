package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
// oracle with == on every float32: batches of 1, 3 and 8 (single rows,
// leftover rows, whole 4-row tiles), sequences of 1, 2 and 17 steps,
// In ≠ H, H on and off the 32-column tile, full sequence and last state — each from no arena, a cold arena and a
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
			// K = 320 spans two packKC slabs, and at B = 8 the rule
			// splits the time loop at width 2 into two parts of 160 units.
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
					// free buffer poisoned once, then recycled with whatever
					// the previous call left in it.
					ar := NewArena()
					cold := run(nil, x, wx, wh, bias, false, ar)
					check("cold arena", false, cold)
					ar.Release(cold)
					poisonArena(ar)
					for _, workers := range []int{2, 1} {
						SetMaxWorkers(workers)
						if parts, _ := rnnSplit(steps, b, hd, gates); workers == 2 && hd == 320 && b == 8 && parts != 2 {
							t.Errorf("%s B=8 T=%d H=320: the time loop runs on %d parts at width 2, want 2", name, steps, parts)
						}
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

// rnnLayer is one random recurrent layer and input for the split tests.
type rnnLayer struct {
	run             func(out, x, wx, wh, bias *Tensor, lastOnly bool, ar *Arena) *Tensor
	x, wx, wh, bias *Tensor
}

func newRNNLayer(rng *rand.Rand, lstm bool, b, steps, in, hd int) rnnLayer {
	gates, run := 3, GRUSeqInto
	if lstm {
		gates, run = 4, LSTMSeqInto
	}
	return rnnLayer{run, Rand(rng, 1, b, steps, in), Rand(rng, 1, gates*hd, in).MarkPinned(),
		Rand(rng, float32(1/math.Sqrt(float64(hd))), gates*hd, hd).MarkPinned(), Rand(rng, 1, gates*hd)}
}

// at runs the layer with the fan-out capped at width into a fresh arena
// whose recycled buffers are NaN: one for each request the call makes (the
// result, h0, c, GX, GH), which is poisonArena narrowed to this one call.
func (l rnnLayer) at(width int, lastOnly bool) *Tensor {
	b, steps, hd, n := l.x.shape[0], l.x.shape[1], l.wh.shape[1], l.wx.shape[0]
	result := b * steps * hd
	if lastOnly {
		result = b * hd
	}
	ar := NewArena()
	var held []*Tensor
	for _, size := range []int{result, b * hd, b * hd, b * steps * n, b * n} {
		p := ar.NewNoZero(size)
		for i := range p.data {
			p.data[i] = float32(math.NaN())
		}
		held = append(held, p)
	}
	for _, p := range held {
		ar.Release(p)
	}
	SetMaxWorkers(width)
	defer SetMaxWorkers(0)
	return l.run(nil, l.x, l.wx, l.wh, l.bias, lastOnly, ar)
}

// TestRNNSeqSplitMatchesWidth1 holds the hidden-unit split of the time
// loop to the width-1 loop with == on every float32: odd and even T (which
// h buffer the last step writes), the full sequence and the last state, an
// H that is one tile (a single part), off the panel grid (a single part),
// two uneven parts (40 = 32 + 8) and the zoo's 256 and 320, at B = 1, 3
// (leftover rows) and 8 (4-row tiles), from arenas poisoned with NaN. Besides
// T = 1, 2, 17 and 24, each layer that can split runs at the first two
// lengths the rule splits at width 2, which splits even under GOMAXPROCS 1.
func TestRNNSeqSplitMatchesWidth1(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, lstm := range []bool{true, false} {
		gates := 3
		if lstm {
			gates = 4
		}
		for _, hd := range []int{20, 40, 100, 256, 320} {
			for _, b := range []int{1, 3, 8} {
				stepList := []int{1, 2, 17, 24}
				if split := firstSplit(b, hd, gates); split > 0 {
					stepList = append(stepList, split, split+1)
				} else if hd%nr == 0 && hd > tilePanels1*nr {
					t.Errorf("lstm=%v H=%d B=%d: the rule never splits the time loop", lstm, hd, b)
				}
				for _, steps := range stepList {
					l := newRNNLayer(rng, lstm, b, steps, 24, hd)
					for _, lastOnly := range []bool{false, true} {
						want, got := l.at(1, lastOnly), l.at(2, lastOnly)
						if !bitEqual(got, want) {
							t.Errorf("lstm=%v H=%d B=%d T=%d lastOnly=%v: the split differs from width 1 (max |Δ| %g)",
								lstm, hd, b, steps, lastOnly, MaxAbsDiff(got, want))
						}
					}
				}
			}
		}
	}
}

// firstSplit returns the shortest sequence, up to 4096 steps, whose time
// loop rnnSplit cuts into more than one part at width 2, or 0.
func firstSplit(b, hd, gates int) int {
	SetMaxWorkers(2)
	defer SetMaxWorkers(0)
	for steps := 1; steps <= 4096; steps++ {
		if parts, _ := rnnSplit(steps, b, hd, gates); parts > 1 {
			return steps
		}
	}
	return 0
}

// TestRNNSeqConcurrentSequences runs two split sequences at once from two
// goroutines, the shape of InferParallel's two lanes: each offers a helper
// to the same pool, and both must finish with the width-1 bits.
func TestRNNSeqConcurrentSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	layers := []rnnLayer{newRNNLayer(rng, true, 1, 40, 64, 320), newRNNLayer(rng, false, 3, 40, 64, 256)}
	// Both layers split at width 2, and so do Siamese's 80-step H = 320
	// LSTM sequences at B = 1.
	for _, first := range []int{firstSplit(1, 320, 4), firstSplit(3, 256, 3)} {
		if first == 0 || first > 40 {
			t.Fatalf("a 40-step sequence does not split at width 2 (first split at T = %d)", first)
		}
	}
	var want [2]*Tensor
	for i, l := range layers {
		want[i] = l.at(1, false)
	}
	SetMaxWorkers(2)
	defer SetMaxWorkers(0)
	for round := 0; round < 3; round++ {
		var got [2]*Tensor
		var wg sync.WaitGroup
		for i, l := range layers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = l.run(nil, l.x, l.wx, l.wh, l.bias, false, NewArena())
			}()
		}
		wg.Wait()
		for i := range got {
			if !bitEqual(got[i], want[i]) {
				t.Fatalf("round %d, sequence %d: differs from width 1 (max |Δ| %g)", round, i, MaxAbsDiff(got[i], want[i]))
			}
		}
	}
}

// TestRNNSeqWhileParallelForWaits starts a split sequence while another
// goroutine waits in ParallelForChunked with a pool worker held in its
// second block until the sequence is done: the waiting goroutine drains the
// pool queue, so it may run the sequence's helper inline. The sequence must
// not depend on that helper — it finishes, with the width-1 bits, and then
// releases the block.
func TestRNNSeqWhileParallelForWaits(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	l := newRNNLayer(rng, true, 1, 40, 64, 320)
	want := l.at(1, false)
	SetMaxWorkers(2)
	defer SetMaxWorkers(0)
	for round := 0; round < 3; round++ {
		var second, seqDone atomic.Bool
		waited := make(chan struct{})
		go func() {
			defer close(waited)
			ParallelForChunked(2, 2, 1, func(lo, _ int) {
				if lo == 0 {
					for !second.Load() {
						runtime.Gosched()
					}
					return
				}
				second.Store(true)
				for !seqDone.Load() {
					runtime.Gosched()
				}
			})
		}()
		for !second.Load() {
			runtime.Gosched()
		}
		got := l.run(nil, l.x, l.wx, l.wh, l.bias, false, NewArena())
		seqDone.Store(true)
		<-waited
		if !bitEqual(got, want) {
			t.Fatalf("round %d: differs from width 1 (max |Δ| %g)", round, MaxAbsDiff(got, want))
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
// single-part time loop at every batch size; a split sequence allocates its
// stepLoop helper once, whatever T.
func TestRNNSeqTimeLoopAllocatesNothing(t *testing.T) {
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
func lstmRowsRef(s rnnStep, u0, u1 int) {
	hd := s.hd
	for r := 0; r < s.b; r++ {
		xg := s.gx[r*s.ldx : r*s.ldx+4*hd]
		hg := s.gh[r*4*hd : (r+1)*4*hd]
		cRow := s.c[r*hd : (r+1)*hd]
		hOut := s.hOut[r*s.ldOut : r*s.ldOut+hd]
		for j := u0; j < u1; j++ {
			in := sigmoidRef(xg[j] + hg[j])
			fg := sigmoidRef(xg[hd+j] + hg[hd+j])
			cc := math.Tanh(float64(xg[2*hd+j] + hg[2*hd+j]))
			ot := sigmoidRef(xg[3*hd+j] + hg[3*hd+j])
			cv := fg*float64(cRow[j]) + in*cc
			cRow[j] = float32(cv)
			hOut[j] = float32(ot * math.Tanh(cv))
		}
	}
}

func gruRowsRef(s rnnStep, u0, u1 int) {
	hd := s.hd
	for r := 0; r < s.b; r++ {
		xg := s.gx[r*s.ldx : r*s.ldx+3*hd]
		hg := s.gh[r*3*hd : (r+1)*3*hd]
		hIn := s.hIn[r*s.ldIn : r*s.ldIn+hd]
		hOut := s.hOut[r*s.ldOut : r*s.ldOut+hd]
		for j := u0; j < u1; j++ {
			rs := sigmoidRef(xg[j] + hg[j])
			zu := sigmoidRef(xg[hd+j] + hg[hd+j])
			nw := math.Tanh(float64(xg[2*hd+j]) + rs*float64(hg[2*hd+j]))
			hOut[j] = float32((1-zu)*nw + zu*float64(hIn[j]))
		}
	}
}

// TestRNNRowsMatchScalarReference holds lstmRows and gruRows to the
// per-unit references bit for bit (sameFloat) at hidden sizes around a
// vector group and a chunk and at the zoo's 320, for one row and eight: the
// new h and c, with the pass run over units [H/3, H) only, so the units
// before must come out untouched, and h updated in place (the cells) or
// read from one strided buffer and written to another (the sequence
// driver). Pre-activations and state are drawn at scales that keep tanh in
// its rational branch, straddle 0.625, saturate it and send exp past ±700,
// with ±Inf, NaN and the regime edges among them.
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
					ldx, ldOut := n+3, hd+2 // row strides of a (B,T,·) view
					gx := regimeValues(rng, b*ldx, scale)
					gh := regimeValues(rng, b*n, scale)
					state := regimeValues(rng, 2*b*hd, scale)
					run := func(rows rnnRows, inPlace bool) (h, c, hOut []float32) {
						h = append([]float32(nil), state[:b*hd]...)
						c = append([]float32(nil), state[b*hd:]...)
						s := rnnStep{gx: gx, gh: gh, hIn: h, hOut: h, c: c, ldx: ldx, ldIn: hd, ldOut: hd, hd: hd, b: b}
						if !inPlace {
							hOut = make([]float32, b*ldOut)
							s.hOut, s.ldOut = hOut, ldOut
						}
						rows(s, hd/3, hd)
						return h, c, hOut
					}
					for _, inPlace := range []bool{false, true} {
						gotH, gotC, gotOut := run(tc.cell.rows, inPlace)
						wantH, wantC, wantOut := run(tc.ref, inPlace)
						for _, v := range []struct {
							what      string
							got, want []float32
						}{{"h", gotH, wantH}, {"c", gotC, wantC}, {"hOut", gotOut, wantOut}} {
							for i := range v.got {
								if !sameFloat(v.got[i], v.want[i]) {
									t.Fatalf("%s H=%d B=%d scale=%g inPlace=%v: %s[%d] = %#x, want %#x", tc.cell.name, hd, b, scale, inPlace,
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
