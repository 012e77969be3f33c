package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// maxEdges holds every float class the maximum and ReLU loops must order
// exactly as the `x > y ? x : y` scan: NaN, both zeros, both infinities,
// subnormals of both signs and ordinary numbers.
var maxEdges = []float32{
	float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	1e-45, -1e-45, 3e-39, math.MaxFloat32, -math.MaxFloat32, 1, -1, 2.5,
}

// TestMaxLoopsMatchScan holds reluLoop, maximumLoop and maximumScalar —
// VMAXPS on amd64, the portable loops under purego or with the assembly
// switched off — to the scalar predicate bit for bit over every ordered
// pair of edge values, at every length from 0 to 40 (whole vectors and
// scalar tails) and at odd offsets into NaN-filled arrays: an element
// outside [0, n) that changes is a write past the slice.
func TestMaxLoopsMatchScan(t *testing.T) {
	nan := float32(math.NaN())
	var xs, ys []float32
	for _, x := range maxEdges {
		for _, y := range maxEdges {
			xs, ys = append(xs, x), append(ys, y)
		}
	}
	carve := func(n int) (sub, whole []float32) {
		whole = make([]float32, n+12)
		for i := range whole {
			whole[i] = nan
		}
		return whole[5 : 5+n : 5+n], whole
	}
	for n := 0; n <= 40; n++ {
		for off := 0; off+n <= len(xs); off += 37 {
			dst, whole := carve(n)
			x, y := xs[off:off+n], ys[off:off+n]
			maximumLoop(dst, x, y)
			for i := range dst {
				want := y[i]
				if x[i] > y[i] {
					want = x[i]
				}
				if math.Float32bits(dst[i]) != math.Float32bits(want) {
					t.Fatalf("maximumLoop n=%d: max(%g, %g) = %#x, want %#x", n, x[i], y[i], math.Float32bits(dst[i]), math.Float32bits(want))
				}
			}
			for _, s := range maxEdges {
				maximumScalar(dst, x, s)
				for i := range dst {
					want := s
					if x[i] > s {
						want = x[i]
					}
					if math.Float32bits(dst[i]) != math.Float32bits(want) {
						t.Fatalf("maximumScalar n=%d: max(%g, %g) = %#x, want %#x", n, x[i], s, math.Float32bits(dst[i]), math.Float32bits(want))
					}
				}
			}
			reluLoop(dst, x)
			for i := range dst {
				var want float32
				if x[i] > 0 {
					want = x[i]
				}
				if math.Float32bits(dst[i]) != math.Float32bits(want) {
					t.Fatalf("reluLoop n=%d: relu(%g) = %#x, want %#x", n, x[i], math.Float32bits(dst[i]), math.Float32bits(want))
				}
			}
			for i, v := range whole {
				if (i < 5 || i >= 5+n) && !math.IsNaN(float64(v)) {
					t.Fatalf("n=%d: a loop wrote %g at %d, outside its slice [5, %d)", n, v, i, 5+n)
				}
			}
		}
	}
	// In place, as the tape and max-pool call them.
	x := append([]float32(nil), xs...)
	y := append([]float32(nil), ys...)
	maximumLoop(y, x, y)
	reluLoop(x, x)
	for i := range xs {
		wantMax, wantReLU := ys[i], float32(0)
		if xs[i] > ys[i] {
			wantMax = xs[i]
		}
		if xs[i] > 0 {
			wantReLU = xs[i]
		}
		if math.Float32bits(y[i]) != math.Float32bits(wantMax) || math.Float32bits(x[i]) != math.Float32bits(wantReLU) {
			t.Fatalf("in place at %d: max %#x relu %#x, want %#x %#x", i, math.Float32bits(y[i]), math.Float32bits(x[i]), math.Float32bits(wantMax), math.Float32bits(wantReLU))
		}
	}
}

// transcendentals are the float64 loops with the per-element formula each
// must reproduce bit for bit: math.Exp and math.Tanh, one element at a time.
var transcendentals = []struct {
	name string
	loop unaryLoop
	ref  func(float32) float32
}{
	{"exp", expLoop, func(x float32) float32 { return float32(math.Exp(float64(x))) }},
	{"sigmoid", sigmoidLoop, func(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }},
	{"tanh", tanhLoop, func(x float32) float32 { return float32(math.Tanh(float64(x))) }},
	{"gelu", geluLoop, func(x float32) float32 {
		const c = 0.7978845608028654 // sqrt(2/pi)
		xf := float64(x)
		return float32(0.5 * xf * (1 + math.Tanh(c*(xf+0.044715*xf*xf*xf))))
	}},
}

// regimeEdges are the float32 arguments where an exp or tanh changes
// branch: tanh's rational/exp boundary at ±0.625 and its float32
// neighbours, its saturation near ±44, the vector exp's ±700 cut-off,
// math.Exp's overflow and underflow, the zeros, the smallest subnormal, the
// infinities and NaN.
var regimeEdges = []float32{
	0.625, math.Nextafter32(0.625, 0), math.Nextafter32(0.625, 1),
	-0.625, math.Nextafter32(-0.625, 0), math.Nextafter32(-0.625, -1),
	44.014, 44.015, -44.014, -44.015, 700, math.Nextafter32(700, 800), -700, math.Nextafter32(-700, -800),
	708.4, 709.79, 710, -745.2, 1000, -1000, 0, float32(math.Copysign(0, -1)), 1e-45, -1e-45,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// regimeValues returns n float32s mixing ordinary values at the given
// scale with every regimeEdges entry about once in eleven elements, so a
// group of four often holds one lane that sends it to math.Exp.
func regimeValues(rng *rand.Rand, n int, scale float64) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		if rng.Intn(11) == 0 {
			xs[i] = regimeEdges[rng.Intn(len(regimeEdges))]
		} else {
			xs[i] = float32(rng.NormFloat64() * scale)
		}
	}
	return xs
}

// TestTranscendentalLoopsMatchMath holds the exp, sigmoid, tanh and GELU
// loops to their per-element formulas over math bit for bit: at every
// length around a vector group and a chunk, at scales that keep tanh in its
// rational branch, straddle 0.625, saturate it and push exp past ±700,
// out of place into NaN-filled arrays (nothing outside [0, n) may change)
// and in place.
func TestTranscendentalLoopsMatchMath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nan := float32(math.NaN())
	for _, f := range transcendentals {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 130, 200} {
			for _, scale := range []float64{0.3, 3, 60, 1000} {
				src := regimeValues(rng, n, scale)
				whole := make([]float32, n+10)
				for i := range whole {
					whole[i] = nan
				}
				dst := whole[3 : 3+n : 3+n]
				f.loop(dst, src)
				inPlace := append([]float32(nil), src...)
				f.loop(inPlace, inPlace)
				for i, x := range src {
					want := math.Float32bits(f.ref(x))
					if got := math.Float32bits(dst[i]); got != want {
						t.Fatalf("%s n=%d scale=%g: f(%g) = %#x, want %#x", f.name, n, scale, x, got, want)
					}
					if got := math.Float32bits(inPlace[i]); got != want {
						t.Fatalf("%s in place n=%d scale=%g: f(%g) = %#x, want %#x", f.name, n, scale, x, got, want)
					}
				}
				for i, v := range whole {
					if (i < 3 || i >= 3+n) && !math.IsNaN(float64(v)) {
						t.Fatalf("%s n=%d: wrote %g at %d, outside its slice [3, %d)", f.name, n, v, i, 3+n)
					}
				}
			}
		}
	}
}

// softmaxRowsRef is softmaxRows as it was written before the exps were
// batched: one math.Exp per element, stored and summed as it goes.
func softmaxRowsRef(dst, src []float32, k, lo, hi int) {
	for r := lo; r < hi; r++ {
		s := src[r*k : (r+1)*k]
		d := dst[r*k : (r+1)*k]
		m := s[0]
		for _, v := range s[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for i, v := range s {
			e := math.Exp(float64(v - m))
			d[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range d {
			d[i] *= inv
		}
	}
}

// sameFloat reports a and b equal bit for bit, any two NaNs counting as
// equal: where two different NaNs meet (an input NaN and the negative
// default NaN of Inf − Inf), which one an operation propagates depends on
// the operand order the compiler picked, not on the arithmetic.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// TestSoftmaxRowsMatchReference holds softmaxRows to the per-element loop
// bit for bit (sameFloat) at row lengths around a vector group and a chunk, at spreads
// that leave every shifted argument within ±700 and that push some past it
// (exps that underflow), on finite rows and rows with edge values, over a
// sub-range of rows that must leave the others untouched.
func TestSoftmaxRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const rows = 12
	for _, k := range []int{1, 3, 4, 5, 63, 64, 65, 130, 512} {
		for _, scale := range []float64{1, 30, 1000} {
			// Rows 0–5 are finite values only, rows 6–11 carry the edges: a
			// NaN or an infinity makes its whole row NaN.
			src := regimeValues(rng, rows*k, scale)
			for i := range src[:rows/2*k] {
				src[i] = float32(rng.NormFloat64() * scale)
			}
			got, want := make([]float32, rows*k), make([]float32, rows*k)
			for i := range got {
				got[i], want[i] = -1, -1
			}
			softmaxRows(got, src, k, 1, rows)
			softmaxRowsRef(want, src, k, 1, rows)
			for i := range got {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("k=%d scale=%g: [%d] = %#x, want %#x", k, scale, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}
