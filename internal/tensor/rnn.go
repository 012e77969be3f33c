package tensor

import (
	"fmt"
	"math"
)

// Recurrent layers run as one sequence-level kernel. The input half of
// every gate pre-activation, x_t·wxᵀ + bias, does not depend on the
// recurrence, so all T of them are hoisted into a single (B·T)×In GEMM on
// the compute-bound tile path. Only h·whᵀ stays in the time loop: one packed
// panel, resolved once per sequence and alone in the cache, swept once per
// step into a reused buffer, followed by one fused gate pass that updates
// the state in place. GEMM rows are independent of M, so hoisting cannot
// move a bit: every pre-activation is still ((Σₖ x·w) + bias) + (Σₖ h·w)
// with both sums k-ascending in float32.

// rnnRows is a cell's gate pass over batch rows [lo, hi) of one timestep.
// Row r's input-side pre-activations (bias included) start at gx[r*ldx] and
// its recurrent ones at gh[r*gates*hd]. The state h (and c, for cells that
// carry one) is updated in place; the new h is also stored at seq[r*lds]
// when seq is non-nil.
type rnnRows func(gx []float32, ldx int, gh, h, c, seq []float32, lds, hd, lo, hi int)

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
	// The state starts at zero; lastOnly keeps it in the result itself,
	// otherwise each step's h is also stored into its slot of the sequence.
	h := out
	var seq *Tensor
	if lastOnly {
		clear(h.data)
	} else {
		seq, h = out, ar.New(b, hd)
	}
	var c *Tensor
	var cData, seqData []float32
	if cell.carry {
		c = ar.New(b, hd)
		cData = c.data
	}

	// GX = X·wxᵀ + bias with X read as (B·T)×In: row r·T+step serves batch
	// row r at that step.
	gx := ar.New(b*t, n)
	bp, scratch := packedB(wx, in, n, true, ar)
	gemmPacked(gx.data, x.data, bp, b*t, n, in)
	ar.dropScratch(scratch)
	addBias(gx.data, b*t, n, bias.data)

	// GH = h·whᵀ restarts from zero every step — accumulating it on top of
	// GX would reassociate the sum. The gate pass fans out over batch rows
	// when a step is worth a hand-off; the closure is built once, outside
	// the loop and past the serial decision, and reads the step's views of
	// GX and seq through gxStep and seqData.
	bp, scratch = packedB(wh, hd, n, true, ar)
	gh := ar.NewNoZero(b, n)
	var gxStep []float32
	var pass func(lo, hi int)
	if worthSplitting(b, n) {
		pass = func(lo, hi int) {
			cell.rows(gxStep, t*n, gh.data, h.data, cData, seqData, t*hd, hd, lo, hi)
		}
	}
	for step := 0; step < t; step++ {
		clear(gh.data)
		gemmPacked(gh.data, h.data, bp, b, n, hd)
		gxStep = gx.data[step*n:]
		if seq != nil {
			seqData = seq.data[step*hd:]
		}
		if pass != nil {
			ParallelForChunked(b, planeGrain(b), pass)
		} else {
			cell.rows(gxStep, t*n, gh.data, h.data, cData, seqData, t*hd, hd, 0, b)
		}
	}
	ar.dropScratch(scratch)
	ar.Release(gh)
	ar.Release(gx)
	ar.Release(c)
	if seq != nil {
		ar.Release(h)
	}
	return out
}

// LSTMCell advances one LSTM timestep: the readable definition of a step,
// and the oracle LSTMSeqInto is tested against.
// x: (B, In); h, c: (B, H); wx: (4H, In); wh: (4H, H); bias: (4H).
// Gate order is [input, forget, cell, output]. Returns (h', c').
func LSTMCell(x, h, c, wx, wh, bias *Tensor) (*Tensor, *Tensor) {
	gx, gh := Linear(x, wx, bias), Linear(h, wh, nil)
	h, c = h.Clone(), c.Clone()
	lstmRows(gx.data, gx.shape[1], gh.data, h.data, c.data, nil, 0, h.shape[1], 0, h.shape[0])
	return h, c
}

// GRUCell advances one GRU timestep, as LSTMCell does for the LSTM.
// x: (B, In); h: (B, H); wx: (3H, In); wh: (3H, H); bias: (3H).
// Gate order is [reset, update, new]. Returns h'.
func GRUCell(x, h, wx, wh, bias *Tensor) *Tensor {
	gx, gh := Linear(x, wx, bias), Linear(h, wh, nil)
	h = h.Clone()
	gruRows(gx.data, gx.shape[1], gh.data, h.data, nil, nil, 0, h.shape[1], 0, h.shape[0])
	return h
}

func sigmoid64(x float32) float64 { return 1 / (1 + math.Exp(-float64(x))) }

func lstmRows(gx []float32, ldx int, gh, h, c, seq []float32, lds, hd, lo, hi int) {
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
			in := sigmoid64(xg[j] + hg[j])
			fg := sigmoid64(xg[hd+j] + hg[hd+j])
			cc := math.Tanh(float64(xg[2*hd+j] + hg[2*hd+j]))
			ot := sigmoid64(xg[3*hd+j] + hg[3*hd+j])
			cv := fg*float64(cRow[j]) + in*cc
			cRow[j] = float32(cv)
			hv := float32(ot * math.Tanh(cv))
			hRow[j], dst[j] = hv, hv
		}
	}
}

func gruRows(gx []float32, ldx int, gh, h, _, seq []float32, lds, hd, lo, hi int) {
	for r := lo; r < hi; r++ {
		xg := gx[r*ldx : r*ldx+3*hd]
		hg := gh[r*3*hd : (r+1)*3*hd]
		hRow := h[r*hd : (r+1)*hd]
		dst := hRow
		if seq != nil {
			dst = seq[r*lds : r*lds+hd]
		}
		for j := 0; j < hd; j++ {
			rs := sigmoid64(xg[j] + hg[j])
			zu := sigmoid64(xg[hd+j] + hg[hd+j])
			nw := math.Tanh(float64(xg[2*hd+j]) + rs*float64(hg[2*hd+j]))
			hv := float32((1-zu)*nw + zu*float64(hRow[j]))
			hRow[j], dst[j] = hv, hv
		}
	}
}
