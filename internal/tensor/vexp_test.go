package tensor

import (
	"math"
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

// vexpSweep is every 4099th float32 bit pattern, read as a float64: both
// signs, every exponent, subnormals, the infinities and NaNs.
func vexpSweep() []float64 {
	var xs []float64
	for b := uint64(0); b < 1<<32; b += 4099 {
		xs = append(xs, float64(math.Float32frombits(uint32(b))))
	}
	return xs
}

// TestVexpMatchesMath holds expBatch and tanhBatch to math.Exp and
// math.Tanh bit for bit, and the sigmoid form 1/(1+exp(-x)) built on
// expBatch to the same form built on math.Exp, over the pinned boundaries
// (in every position of a group of four, so each is met both alone among
// in-range lanes and as the lane that sends its group to math.Exp) and the
// strided float32 sweep.
func TestVexpMatchesMath(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
	}{{"pinned", vexpPinned()}, {"sweep", vexpSweep()}} {
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

// TestVexpCanaries runs expBatch and tanhBatch on sub-slices cut at odd
// (unaligned) offsets out of NaN-filled arrays, at every length from 0 to 9
// and at one chunk and one past it: every element in [0, n) must match
// math, and nothing outside it may be written — neither in dst nor in
// tanhBatch's scratch beyond n.
func TestVexpCanaries(t *testing.T) {
	const canary = 0x7ff8dead00000001 // a NaN no computation produces
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
		}
	}
}
