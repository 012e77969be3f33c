package tensor

import "math/rand"

// RNG replays, bit for bit, the stream rand.New(rand.NewSource(seed))
// yields, in a layout that lets Rand fill a tensor in bulk.
//
// math/rand's source is the additive lagged Fibonacci generator
// y[n] = y[n-607] + y[n-273] (mod 2⁶⁴), with Int63 = Uint64 &^ (1<<63).
// RNG keeps the 607 most recent terms in a ring that it walks forwards:
// slot n mod 607 holds y[n-607] until step n overwrites it with y[n], and
// the tap y[n-273] sits 334 slots ahead. Walking forwards turns a fill
// into contiguous runs over the ring with no per-element modulo and no
// interface call.
//
// RNG implements rand.Source64, so rand.New(rng) draws Intn and the like
// from the same state.
type RNG struct {
	vec  [rngLen]uint64
	feed int // slot of the next output
	tap  int // slot of the term 273 back: (feed + rngLen - rngTap) mod rngLen
}

const (
	rngLen = 607
	rngTap = 273
)

// NewRNG returns an RNG positioned at the start of seed's math/rand stream.
func NewRNG(seed int64) *RNG {
	r := new(RNG)
	r.Seed(seed)
	return r
}

// Seed restarts the stream at the start of seed's math/rand stream.
//
// It copies no table out of math/rand: it draws the first 607 outputs
// y[0..606] from rand.NewSource(seed) and runs the recurrence backwards,
// vec[k] = y[k] - y[k-273], where a tap before the stream's start is the
// initial content of slot k+334, already recovered since k+334 > k.
func (r *RNG) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var y [rngLen]uint64
	for k := range y {
		y[k] = src.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- {
		if k >= rngTap {
			r.vec[k] = y[k] - y[k-rngTap]
		} else {
			r.vec[k] = y[k] - r.vec[k+rngLen-rngTap]
		}
	}
	r.feed, r.tap = 0, rngLen-rngTap
}

// Uint64 returns the next 64-bit value of the stream.
func (r *RNG) Uint64() uint64 {
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	if r.feed++; r.feed == rngLen {
		r.feed = 0
	}
	if r.tap++; r.tap == rngLen {
		r.tap = 0
	}
	return x
}

// Int63 returns the next value of the stream as a non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// fill writes (u*2 - 1) * bound into every element of dst, where u is the
// stream's next rand.Float32. Float32 divides Int63 by 2⁶³ — the same as
// multiplying by the exact constant 2⁻⁶³ — and resamples a draw whose
// float32 rounds to 1, so such a draw is consumed and skipped here.
// Where the machine has the vector kernel, fillChunks runs each run's whole
// chunks of eight terms; the chunk it stops at, which holds such a draw,
// and the run's last terms take the scalar loop, which elsewhere runs all.
func (r *RNG) fill(dst []float32, bound float32) {
	const scale = 1.0 / (1 << 63)
	for len(dst) > 0 {
		n := min(rngLen-r.feed, rngLen-r.tap, len(dst))
		feed, tap := r.vec[r.feed:r.feed+n], r.vec[r.tap:r.tap+n]
		// tap may overlap feed's tail; the in-order loop reads each tap
		// after this run wrote it, as the recurrence requires.
		k, out := 0, 0
		for k < n {
			done, stopped := fillChunks(dst[out:], feed[k:], tap[k:], bound)
			k += done
			out += done
			end := n
			if stopped {
				end = k + 8
			}
			fd, tp := feed[k:end], tap[k:end]
			for j := range fd {
				x := fd[j] + tp[j]
				fd[j] = x
				f := float32(float64(int64(x&^(1<<63))) * scale)
				if f == 1 {
					continue
				}
				dst[out] = (f*2 - 1) * bound
				out++
			}
			k = end
		}
		dst = dst[out:]
		if r.feed += n; r.feed == rngLen {
			r.feed = 0
		}
		if r.tap += n; r.tap == rngLen {
			r.tap = 0
		}
	}
}
