package tensor

import (
	"math"
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
