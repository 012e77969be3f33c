package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// vexpPinned are the arguments where exp and tanh change regime: the zeros,
// tanh's rational/exp boundary at ±0.625 and the float64 neighbours on both
// sides, its saturation at ±0.5·MAXLOG, the vector path's ±700 cut-off and
// its neighbours, math.Exp's overflow threshold and the edge of its
// denormal range, the smallest subnormal, the infinities and NaN.
func vexpPinned() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	var xs []float64
	for _, v := range []float64{0.625, halfMaxLog, 700} {
		for _, u := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			xs = append(xs, u, -u)
		}
	}
	return append(xs, 0, math.Copysign(0, -1), 708.4, 709.78, 7.09782712893384e+02,
		math.Nextafter(7.09782712893384e+02, 1000), -745.13, -745.14, -708.4,
		5e-324, -5e-324, math.SmallestNonzeroFloat64*1e10, 1, -1, 1e-300,
		math.Inf(1), math.Inf(-1), math.NaN())
}

// sweep32 is every 4099th float32 bit pattern: both signs, every
// exponent, subnormals, the infinities, quiet and signalling NaNs.
func sweep32() []float32 {
	var xs []float32
	for b := uint64(0); b < 1<<32; b += 4099 {
		xs = append(xs, math.Float32frombits(uint32(b)))
	}
	return xs
}

// vexpSweep is sweep32 read as float64s.
func vexpSweep() []float64 {
	var xs []float64
	for _, x := range sweep32() {
		xs = append(xs, float64(x))
	}
	return xs
}

// vexpDense is 2²⁰ float64s drawn uniformly from (−1, 1): both tanh
// regimes at full float64 resolution, as the RNN gate passes produce their
// arguments. For a float32 x the sweep's x·x is exact, so only arguments
// like these round it.
func vexpDense() []float64 {
	rng := rand.New(rand.NewSource(36))
	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = 2*rng.Float64() - 1
	}
	return xs
}

// TestVexpMatchesMath holds expBatch and tanhBatch to math.Exp and
// math.Tanh bit for bit, and the sigmoid form 1/(1+exp(-x)) built on
// expBatch to the same form built on math.Exp, over the pinned boundaries
// (in every position of a group of four, so each is met both alone among
// in-range lanes and as the lane that sends its group to math.Exp), the
// strided float32 sweep and the dense float64 draw.
func TestVexpMatchesMath(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
	}{{"pinned", vexpPinned()}, {"sweep", vexpSweep()}, {"dense", vexpDense()}} {
		xs := tc.xs
		if tc.name == "pinned" {
			var shifted []float64
			for _, x := range xs {
				for pos := 0; pos < 4; pos++ {
					g := []float64{0.5, -1.25, 3, -0.0625}
					g[pos] = x
					shifted = append(shifted, g...)
				}
			}
			xs = shifted
		}
		exp := make([]float64, len(xs))
		expBatch(exp, xs)
		neg := make([]float64, len(xs))
		for i, x := range xs {
			neg[i] = -x
		}
		expBatch(neg, neg)
		th := make([]float64, len(xs))
		tanhBatch(th, xs, make([]float64, len(xs)))
		for i, x := range xs {
			if got, want := exp[i], math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: exp(%v) = %v (%#x), want %v (%#x)", tc.name, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := 1/(1+neg[i]), 1/(1+math.Exp(-x)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: sigmoid(%v) = %v, want %v", tc.name, x, got, want)
			}
			if got, want := th[i], math.Tanh(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: tanh(%v) = %v (%#x), want %v (%#x)", tc.name, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestVexpCanaries runs expBatch, tanhBatch and the GELU stages (geluArg,
// tanhExp, geluOut) on sub-slices cut at odd (unaligned) offsets out of
// NaN-filled arrays, at every length from 0 to 9 and at one chunk and one
// past it: every element in [0, n) must match math, and nothing outside it
// may be written — neither in dst nor in tanhBatch's scratch beyond n.
func TestVexpCanaries(t *testing.T) {
	const canary = 0x7ff8dead00000001 // a NaN no computation produces
	const canary32 = 0x7fc0dead
	carve := func(off, n int) (sub, whole []float64) {
		whole = make([]float64, off+n+11)
		for i := range whole {
			whole[i] = math.Float64frombits(canary)
		}
		return whole[off : off+n : off+n], whole
	}
	intact := func(what string, n int, whole []float64, off int) {
		t.Helper()
		for i, v := range whole {
			if (i < off || i >= off+n) && math.Float64bits(v) != canary {
				t.Fatalf("%s n=%d: element %d outside the slice was written (%v)", what, n, i-off, v)
			}
		}
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65} {
		for _, off := range []int{0, 1, 3} {
			src := make([]float64, n)
			for i := range src {
				src[i] = 3*math.Sin(float64(7*i+n)) + float64(i%5-2)*0.3
			}
			dst, whole := carve(off, n)
			expBatch(dst, src)
			for i := range dst {
				if want := math.Exp(src[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("expBatch n=%d off=%d: [%d] = %v, want %v", n, off, i, dst[i], want)
				}
			}
			intact("expBatch", n, whole, off)

			dst, whole = carve(off, n)
			tmpWhole := make([]float64, n+11)
			for i := range tmpWhole {
				tmpWhole[i] = math.Float64frombits(canary)
			}
			tanhBatch(dst, src, tmpWhole)
			for i := range dst {
				if want := math.Tanh(src[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("tanhBatch n=%d off=%d: [%d] = %v, want %v", n, off, i, dst[i], want)
				}
			}
			intact("tanhBatch", n, whole, off)
			intact("tanhBatch scratch", n, tmpWhole, 0)

			e := make([]float64, n)
			for i, x := range src {
				e[i] = math.Exp(2 * math.Abs(x))
			}
			dst, whole = carve(off, n)
			tanhExp(dst, src, e)
			for i := range dst {
				if want := math.Tanh(src[i]); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("tanhExp n=%d off=%d: [%d] = %v, want %v", n, off, i, dst[i], want)
				}
			}
			intact("tanhExp", n, whole, off)

			x32 := make([]float32, n)
			for i, x := range src {
				x32[i] = float32(x)
			}
			a, aWhole := carve(off, n)
			e, eWhole := carve(off+1, n)
			geluArg(a, e, x32)
			for i, x := range x32 {
				xf := float64(x)
				want := 0.7978845608028654 * (xf + 0.044715*xf*xf*xf)
				if math.Float64bits(a[i]) != math.Float64bits(want) || math.Float64bits(e[i]) != math.Float64bits(2*math.Abs(want)) {
					t.Fatalf("geluArg n=%d off=%d: [%d] = %v, %v, want %v, %v", n, off, i, a[i], e[i], want, 2*math.Abs(want))
				}
			}
			intact("geluArg a", n, aWhole, off)
			intact("geluArg e", n, eWhole, off+1)

			out32 := make([]float32, off+n+11)
			for i := range out32 {
				out32[i] = math.Float32frombits(canary32)
			}
			geluOut(out32[off:off+n:off+n], x32, src)
			for i, v := range out32 {
				if i < off || i >= off+n {
					if math.Float32bits(v) != canary32 {
						t.Fatalf("geluOut n=%d: element %d outside the slice was written (%v)", n, i-off, v)
					}
					continue
				}
				xf := float64(x32[i-off])
				if want := float32(0.5 * xf * (1 + src[i-off])); math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("geluOut n=%d off=%d: [%d] = %v, want %v", n, off, i-off, v, want)
				}
			}
		}
	}
}

// geluRegimeEdges are the float32 x at which GELU's tanh argument
// a(x) = c·(x + 0.044715·x³) crosses tanh's regime edges — |a| reaches
// 0.625 near x = ±0.763 and passes 0.5·MAXLOG near x = ±10.03 — each with
// both float32 neighbours. a is monotone in x (every step rounds
// monotonically), so bisection over the positive float32 bit patterns,
// which order like their values, finds the least x past each edge.
func geluRegimeEdges() []float32 {
	const c, halfMaxLog = 0.7978845608028654, 0.5 * 8.8029691931113054295988e+01
	arg := func(b uint32) float64 {
		xf := float64(math.Float32frombits(b))
		return c * (xf + 0.044715*xf*xf*xf)
	}
	var xs []float32
	for _, past := range []func(a float64) bool{
		func(a float64) bool { return a >= 0.625 },
		func(a float64) bool { return a > halfMaxLog },
	} {
		lo, hi := uint32(0), math.Float32bits(100) // arg(lo) short of the edge, arg(hi) past it
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; past(arg(mid)) {
				hi = mid
			} else {
				lo = mid
			}
		}
		x := math.Float32frombits(hi)
		for _, u := range []float32{x, math.Nextafter32(x, 0), math.Nextafter32(x, 200)} {
			xs = append(xs, u, -u)
		}
	}
	return xs
}

// TestGELUMatchesFormula holds geluLoop and tanhLoop to their per-element
// formulas over math bit for bit, NaN payloads included: over GELU's own
// regime edges and the tanh / exp edges of regimeEdges, each in every
// position of a group of four, and over every 4099th float32 bit pattern.
func TestGELUMatchesFormula(t *testing.T) {
	edges := geluRegimeEdges()
	if x, y := edges[0], edges[6]; x < 0.76 || x > 0.77 || y < 10 || y > 10.1 {
		t.Fatalf("GELU's regime edges found at x = %g and %g, want ≈ 0.763 and ≈ 10.03", x, y)
	}
	var pinned []float32
	for _, x := range append(edges, regimeEdges...) {
		for pos := 0; pos < 4; pos++ {
			g := []float32{0.5, -1.25, 3, -0.0625}
			g[pos] = x
			pinned = append(pinned, g...)
		}
	}
	for _, tc := range []struct {
		name string
		xs   []float32
	}{{"pinned", pinned}, {"sweep", sweep32()}} {
		for _, f := range transcendentals {
			if f.name != "gelu" && f.name != "tanh" {
				continue
			}
			got := make([]float32, len(tc.xs))
			f.loop(got, tc.xs)
			for i, x := range tc.xs {
				if want := f.ref(x); math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("%s %s: f(%g) (%#x) = %#x, want %#x", tc.name, f.name, x, math.Float32bits(x), math.Float32bits(got[i]), math.Float32bits(want))
				}
			}
		}
	}
}
