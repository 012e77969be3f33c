package tensor

import "fmt"

// Recurrent layers run as one sequence-level kernel. The input half of
// every gate pre-activation, x_t·wxᵀ + bias, does not depend on the
// recurrence, so all T of them are hoisted into a single (B·T)×In GEMM on
// the compute-bound tile path. Only h·whᵀ stays in the time loop: one packed
// panel, resolved once per sequence, swept once per step into a reused
// buffer, followed by one fused gate pass. GEMM rows are independent of M,
// so hoisting cannot move a bit: every pre-activation is still
// ((Σₖ x·w) + bias) + (Σₖ h·w) with both sums k-ascending in float32. The
// gate pass takes a row's hidden units vchunk at a time: the chunk's exp(-x)
// for every sigmoid gate goes through one expBatch and its tanh arguments
// through tanhBatch — math.Exp and math.Tanh bit for bit, four lanes at a
// time on amd64 — and the rest of each unit's update is scalar float64, in
// the order of the formula.
//
// A step is split across the pool's width by hidden units. Part p owns units
// [u0, u1), cut on whole 32-unit kern1x32 tiles: it sweeps its columns
// g·H+u0 … g·H+u1 of every gate block of the panel and then runs the gate
// pass over the same units, so the parts of one step share nothing but the
// previous h they all read. h is double-buffered for that: a step reads hIn
// and writes hOut (the full sequence writes straight into its slots of the
// output), with the parity chosen so that the last step writes the result.
// A step takes 35–60 µs at the zoo's shapes, about what a parked pool worker
// takes to start, so a hand-off per step would lose; stepLoop offers one
// helper per sequence instead, and the caller runs every item that helper
// has not claimed. Each column is still one k-ascending accumulator and
// each unit's gate arithmetic is unchanged, so the split moves no bit.

// rnnStep holds one timestep's operands for a gate pass over b rows. Row r's
// input-side pre-activations (bias included) start at gx[r*ldx] and its
// recurrent ones at gh[r*gates*hd]. The pass reads the previous h at
// hIn[r*ldIn] and writes the new one to hOut[r*ldOut] (the two may alias);
// cells that carry a state c update it in place.
type rnnStep struct {
	gx, gh, hIn, hOut, c    []float32
	ldx, ldIn, ldOut, hd, b int
}

// rnnRows is a cell's gate pass over hidden units [u0, u1) of every row of
// one timestep.
type rnnRows func(s rnnStep, u0, u1 int)

// rnnCell is what distinguishes the cells to the sequence driver.
type rnnCell struct {
	name  string // exported entry point, for panics
	gates int    // gate blocks of H rows each in wx, wh and bias
	carry bool   // keeps a cell state c beside h
	rows  rnnRows
}

var (
	lstmCell = rnnCell{"LSTMSeqInto", 4, true, lstmRows}
	gruCell  = rnnCell{"GRUSeqInto", 3, false, gruRows}
)

// LSTMSeqInto runs one LSTM layer over the whole sequence from zero initial
// state. x: (B, T, In); wx: (4H, In); wh: (4H, H); bias: (4H); gate order
// [input, forget, cell, output]. The result is the hidden sequence (B, T, H)
// or, with lastOnly, the final hidden state (B, H); it is written into out,
// or into an arena tensor the caller owns when out is nil. Each step is
// bit-identical to LSTMCell.
func LSTMSeqInto(out *Tensor, x, wx, wh, bias *Tensor, lastOnly bool, ar *Arena) *Tensor {
	return rnnSeqInto(out, &lstmCell, x, wx, wh, bias, lastOnly, ar)
}

// GRUSeqInto is LSTMSeqInto for the GRU: wx: (3H, In); wh: (3H, H); bias:
// (3H); gate order [reset, update, new]. Each step is bit-identical to
// GRUCell.
func GRUSeqInto(out *Tensor, x, wx, wh, bias *Tensor, lastOnly bool, ar *Arena) *Tensor {
	return rnnSeqInto(out, &gruCell, x, wx, wh, bias, lastOnly, ar)
}

func rnnSeqInto(out *Tensor, cell *rnnCell, x, wx, wh, bias *Tensor, lastOnly bool, ar *Arena) *Tensor {
	if len(x.shape) != 3 || len(wx.shape) != 2 || len(wh.shape) != 2 || wx.shape[1] != x.shape[2] ||
		wh.shape[0] != wx.shape[0] || wh.shape[1]*cell.gates != wx.shape[0] || bias.Numel() != wx.shape[0] {
		panic(fmt.Sprintf("tensor: %s x %v, wx %v, wh %v, bias %v are not a %d-gate layer over (B,T,In)", cell.name, x.shape, wx.shape, wh.shape, bias.shape, cell.gates))
	}
	b, t, in := x.shape[0], x.shape[1], x.shape[2]
	n, hd := wx.shape[0], wh.shape[1]
	shape := []int{b, t, hd}
	if lastOnly {
		shape = []int{b, hd}
	}
	if out == nil {
		out = ar.NewNoZero(shape...)
	} else {
		checkInto(out, shape, cell.name)
	}
	// The state starts at zero in h0. The full sequence stores step s's h
	// into its slot of out, where step s+1 reads it; lastOnly alternates
	// between out and h0, so that step 0 reads h0 when T is odd and the
	// cleared out when T is even, and the last step always writes out.
	h0 := ar.New(b, hd)
	if lastOnly && t%2 == 0 {
		clear(out.data)
	}
	hAt := func(step int) ([]float32, int) { // the h step writes; -1 is the initial state
		if lastOnly {
			if (t-1-step)%2 == 1 {
				return h0.data, hd
			}
			return out.data, hd
		}
		if step < 0 {
			return h0.data, hd
		}
		return out.data[step*hd:], t * hd
	}
	var c *Tensor
	var cData []float32
	if cell.carry {
		c = ar.New(b, hd)
		cData = c.data
	}

	// GX = X·wxᵀ + bias with X read as (B·T)×In: row r·T+step serves batch
	// row r at that step.
	gx := ar.New(b*t, n)
	bp, scratch := packedB(wx, in, n, true, ar)
	gemmPacked(gx.data, x.data, bp, b*t, n, in)
	ar.Release(scratch)
	addBias(gx.data, b*t, n, bias.data)

	// GH = h·whᵀ restarts from zero every step — accumulating it on top of
	// GX would reassociate the sum. A part clears and sweeps its own columns
	// of each gate block; a single part sweeps each row as one block, which
	// also serves an H off the panel grid.
	bp, scratch = packedB(wh, hd, n, true, ar)
	gh := ar.NewNoZero(b, n)
	parts, per := rnnSplit(t, b, hd, cell.gates)
	blocks := cell.gates
	if parts == 1 {
		blocks = 1
	}
	stepLoop(t, parts, func(step, p int) {
		u0 := p * per
		u1 := min(u0+per, hd)
		hIn, ldIn := hAt(step - 1)
		hOut, ldOut := hAt(step)
		w := u1 - u0 // columns per block
		if blocks == 1 {
			w = n
		}
		for g := 0; g < blocks; g++ {
			j := g*hd + u0
			for r := 0; r < b; r++ {
				clear(gh.data[r*n+j : r*n+j+w])
			}
			gemmBlock(gh.data[j:], n, hIn, ldIn, bp[j*hd:], 0, b, packedPanels(w), w, hd)
		}
		cell.rows(rnnStep{gx: gx.data[step*n:], gh: gh.data, hIn: hIn, hOut: hOut, c: cData,
			ldx: t * n, ldIn: ldIn, ldOut: ldOut, hd: hd, b: b}, u0, u1)
	})
	ar.Release(scratch)
	ar.Release(gh)
	ar.Release(gx)
	ar.Release(c)
	ar.Release(h0)
	return out
}

// rnnSplit cuts hd hidden units into parts of per units each (the last may
// be shorter) on whole kern1x32 tiles, so every part's columns of every gate
// block start on a panel. The parts come from fanOut priced over the whole
// time loop, since stepLoop offers the pool help once per sequence: per
// step, b rows of gates·hd pre-activations, each an hd-long product and a
// gate function. An H off the panel grid, or one that fits one tile, is a
// single part.
func rnnSplit(steps, b, hd, gates int) (parts, per int) {
	const tile = tilePanels1 * nr
	if hd%nr != 0 {
		return 1, hd
	}
	tiles := (hd + tile - 1) / tile
	parts, _ = fanOut(tiles, float64(steps*b*gates*hd)*(float64(hd)*nsMAC+nsTranscendental))
	per = (tiles + parts - 1) / parts * tile
	return (hd + per - 1) / per, per
}

// LSTMCell advances one LSTM timestep: the readable definition of a step,
// and the oracle LSTMSeqInto is tested against.
// x: (B, In); h, c: (B, H); wx: (4H, In); wh: (4H, H); bias: (4H).
// Gate order is [input, forget, cell, output]. Returns (h', c').
func LSTMCell(x, h, c, wx, wh, bias *Tensor) (*Tensor, *Tensor) {
	gx, gh := LinearInto(nil, x, wx, bias, nil), LinearInto(nil, h, wh, nil, nil)
	b, hd := h.shape[0], h.shape[1]
	hn, c := New(b, hd), c.Clone()
	lstmRows(rnnStep{gx: gx.data, gh: gh.data, hIn: h.data, hOut: hn.data, c: c.data,
		ldx: gx.shape[1], ldIn: hd, ldOut: hd, hd: hd, b: b}, 0, hd)
	return hn, c
}

// GRUCell advances one GRU timestep, as LSTMCell does for the LSTM.
// x: (B, In); h: (B, H); wx: (3H, In); wh: (3H, H); bias: (3H).
// Gate order is [reset, update, new]. Returns h'.
func GRUCell(x, h, wx, wh, bias *Tensor) *Tensor {
	gx, gh := LinearInto(nil, x, wx, bias, nil), LinearInto(nil, h, wh, nil, nil)
	b, hd := h.shape[0], h.shape[1]
	hn := New(b, hd)
	gruRows(rnnStep{gx: gx.data, gh: gh.data, hIn: h.data, hOut: hn.data,
		ldx: gx.shape[1], ldIn: hd, ldOut: hd, hd: hd, b: b}, 0, hd)
	return hn
}

func lstmRows(s rnnStep, u0, u1 int) {
	var e [3 * vchunk]float64 // exp(-x) of the input, forget and output gates
	var a, tmp [vchunk]float64
	hd := s.hd
	for r := 0; r < s.b; r++ {
		xg := s.gx[r*s.ldx : r*s.ldx+4*hd]
		hg := s.gh[r*4*hd : (r+1)*4*hd]
		cRow := s.c[r*hd : (r+1)*hd]
		hOut := s.hOut[r*s.ldOut : r*s.ldOut+hd]
		for j0 := u0; j0 < u1; j0 += vchunk {
			n := min(vchunk, u1-j0)
			ei, ef, eo, ak := e[:n], e[n:2*n], e[2*n:3*n], a[:n]
			for j := range ak {
				k := j0 + j
				ei[j] = -float64(xg[k] + hg[k])
				ef[j] = -float64(xg[hd+k] + hg[hd+k])
				ak[j] = float64(xg[2*hd+k] + hg[2*hd+k])
				eo[j] = -float64(xg[3*hd+k] + hg[3*hd+k])
			}
			expBatch(e[:3*n], e[:3*n])
			tanhBatch(ak, ak, tmp[:])
			for j, cc := range ak {
				in, fg := 1/(1+ei[j]), 1/(1+ef[j])
				cv := fg*float64(cRow[j0+j]) + in*cc
				cRow[j0+j] = float32(cv)
				ak[j] = cv
			}
			tanhBatch(ak, ak, tmp[:])
			for j, tc := range ak {
				ot := 1 / (1 + eo[j])
				hOut[j0+j] = float32(ot * tc)
			}
		}
	}
}

func gruRows(s rnnStep, u0, u1 int) {
	var e [2 * vchunk]float64 // exp(-x) of the reset and update gates
	var a, tmp [vchunk]float64
	hd := s.hd
	for r := 0; r < s.b; r++ {
		xg := s.gx[r*s.ldx : r*s.ldx+3*hd]
		hg := s.gh[r*3*hd : (r+1)*3*hd]
		hIn := s.hIn[r*s.ldIn : r*s.ldIn+hd]
		hOut := s.hOut[r*s.ldOut : r*s.ldOut+hd]
		for j0 := u0; j0 < u1; j0 += vchunk {
			n := min(vchunk, u1-j0)
			er, ez, ak := e[:n], e[n:2*n], a[:n]
			for j := range ak {
				k := j0 + j
				er[j] = -float64(xg[k] + hg[k])
				ez[j] = -float64(xg[hd+k] + hg[hd+k])
			}
			expBatch(e[:2*n], e[:2*n])
			for j := range ak {
				k := j0 + j
				rs := 1 / (1 + er[j])
				ak[j] = float64(xg[2*hd+k]) + rs*float64(hg[2*hd+k])
			}
			tanhBatch(ak, ak, tmp[:])
			for j, nw := range ak {
				zu := 1 / (1 + ez[j])
				hOut[j0+j] = float32((1-zu)*nw + zu*float64(hIn[j0+j]))
			}
		}
	}
}
