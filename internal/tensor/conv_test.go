package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		n, cin, h, w, cout, k, stride, pad int
	}{
		{1, 1, 5, 5, 1, 3, 1, 0},
		{1, 3, 8, 8, 4, 3, 1, 1},
		{2, 2, 7, 9, 3, 3, 2, 1},
		{1, 4, 6, 6, 8, 1, 1, 0},
		{1, 3, 11, 11, 2, 5, 2, 2},
		{1, 2, 16, 16, 4, 7, 2, 3},
	}
	for _, c := range cases {
		x := Rand(rng, 1, c.n, c.cin, c.h, c.w)
		w := Rand(rng, 1, c.cout, c.cin, c.k, c.k)
		bias := Rand(rng, 1, c.cout)
		got := Conv2DInto(nil, x, w, bias, c.stride, c.pad, nil)
		want := Conv2DNaive(x, w, bias, c.stride, c.pad)
		if !AllClose(got, want, 1e-4, 1e-4) {
			t.Fatalf("Conv2D %+v diverges from naive by %g", c, MaxAbsDiff(got, want))
		}
	}
}

// convRef is the convolution Conv2DInto must reproduce bit for bit:
// an explicit row-major im2col matrix (zeros where the patch leaves the
// image), MatMulNaive's k-ascending product with the filter matrix, then the
// bias.
func convRef(x, w, bias *Tensor, stride, pad int) *Tensor {
	n, cin, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, kh, kw := w.shape[0], w.shape[2], w.shape[3]
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	k, cols := cin*kh*kw, oh*ow
	out := New(n, cout, oh, ow)
	wm := FromSlice(w.data, cout, k)
	for b := 0; b < n; b++ {
		col := New(k, cols)
		for c := 0; c < cin; c++ {
			for ki := 0; ki < kh; ki++ {
				for kj := 0; kj < kw; kj++ {
					row := col.data[((c*kh+ki)*kw+kj)*cols:]
					plane := x.data[(b*cin+c)*h*wd:]
					for oi := 0; oi < oh; oi++ {
						for oj := 0; oj < ow; oj++ {
							ii, jj := oi*stride+ki-pad, oj*stride+kj-pad
							if ii >= 0 && ii < h && jj >= 0 && jj < wd {
								row[oi*ow+oj] = plane[ii*wd+jj]
							}
						}
					}
				}
			}
		}
		prod := MatMulNaive(wm, col)
		dst := out.data[b*cout*cols : (b+1)*cout*cols]
		for i, v := range prod.data {
			if bias != nil {
				v += bias.data[i/cols]
			}
			dst[i] = v
		}
	}
	return out
}

// poisonArena fills every pooled buffer the next kernel could be handed
// with NaN, so a scratch or destination slot that is read before it is
// written cannot go unnoticed. Buffers are filled by doubling copies: the
// race detector instruments every element store, and the ~1.6 M of them
// dominated -race runs of the conv tests.
func poisonArena(ar *Arena) {
	var held []*Tensor
	for bits := arenaMinClassBits; bits <= 18; bits++ {
		for i := 0; i < 3; i++ {
			t := ar.NewNoZero(1 << bits)
			t.data[0] = float32(math.NaN())
			for j := 1; j < len(t.data); j *= 2 {
				copy(t.data[j:], t.data[:j])
			}
			held = append(held, t)
		}
	}
	for _, t := range held {
		ar.Release(t)
	}
}

// nanWindow returns a copy of x whose data is a window of a larger array
// that is NaN everywhere else: a kernel reading one element before or
// past its input then puts a NaN into the output.
func nanWindow(x *Tensor) *Tensor {
	const before, after = 13, 37
	whole := make([]float32, before+len(x.data)+after)
	for i := range whole {
		whole[i] = float32(math.NaN())
	}
	data := whole[before : before+len(x.data)]
	copy(data, x.data)
	return FromSlice(data, x.shape...)
}

// TestConv2DBitExact pins Conv2DInto to convRef over the shapes that select
// each packing and splitting path: strides 1 and 2, pads 0/1/3, pointwise,
// 3×3 and 7×7 filters, output widths off the panel width (7, 14, 28) so
// panels straddle output rows, fewer than nr output positions, wide patch
// matrices that take the blocked loop and narrow ones that take the row
// split, batches of 1 and 3, and batches of 2, 5 and 8 whose 1×1 to 4×4
// output planes are narrower than a block, so the batch is folded into one
// column space and panels straddle images, stride 3 (the Go pack), and 7×7
// stride 2 pad 3 at output widths 1–9 — each from no arena, a cold arena and
// a recycled one full of stale data, into a fresh and a caller-supplied
// destination, at width 2 and serially. Every input is a window of a
// NaN-filled array, so a patch lane read from outside the image would show.
func TestConv2DBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	type convCase struct {
		n, cin, h, w, cout, k, stride, pad int
	}
	var folded []convCase
	for _, n := range []int{2, 5, 8} {
		for o := 1; o <= 4; o++ {
			folded = append(folded,
				convCase{n, 20, o, o, 7, 3, 1, 1},          // 3×3 pad 1, cout off the row tile
				convCase{n, 9, 2*o - 1, 2 * o, 6, 1, 2, 0}, // strided 1×1 downsample
				convCase{n, 3, o + 6, o + 6, 5, 7, 1, 0},   // 7×7
			)
		}
	}
	folded = append(folded,
		convCase{9, 40, 3, 5, 66, 3, 1, 1}, // 135 folded columns in blocks of 4 panels, the last one partial
		convCase{5, 70, 3, 3, 9, 1, 1, 0},  // pointwise, 9-position planes
	)
	cases := append(folded, []convCase{
		{1, 2, 4, 4, 3, 3, 1, 0},     // 2×2 output: N < nr
		{3, 3, 5, 6, 2, 1, 1, 0},     // pointwise, batch 3
		{1, 5, 9, 9, 6, 1, 2, 0},     // strided pointwise (downsample)
		{1, 4, 7, 7, 5, 3, 1, 1},     // ow = 7
		{3, 3, 14, 14, 9, 3, 1, 1},   // ow = 14, batch 3
		{1, 2, 28, 28, 4, 3, 1, 1},   // ow = 28
		{1, 3, 29, 27, 4, 3, 2, 1},   // stride 2, ow = 14
		{2, 3, 9, 11, 5, 3, 2, 1},    // stride 2 pad 1, batch 2, odd 5×6 output
		{1, 3, 30, 30, 7, 7, 2, 3},   // 7×7 stride 2 pad 3
		{1, 2, 12, 12, 3, 7, 1, 3},   // pad wider than half the image row
		{1, 128, 28, 28, 6, 3, 1, 1}, // deep K, ow = 28: several blocks of few panels
		{3, 192, 14, 14, 5, 3, 1, 1}, // deeper K, ow = 14, batch 3
		{1, 16, 50, 46, 5, 7, 2, 3},  // 7×7 stride 2 over many blocks
		{1, 400, 40, 40, 4, 1, 1, 0}, // pointwise over many blocks
		{1, 64, 12, 12, 70, 3, 1, 1}, // cout past one packMC block, off the row tile
		{1, 3, 17, 20, 4, 3, 3, 1},   // stride 3: Go rows between vector zero rows
		{8, 5, 5, 5, 3, 3, 3, 2},     // stride 3, folded
	}...)
	for ow := 1; ow <= 9; ow++ {
		// 7×7 stride 2 pad 3, the stem's fringes at every run length: odd
		// widths at batch 1, even ones at a folded batch of 8.
		c := convCase{1, 3, 5, 2*ow - 1, 4, 7, 2, 3}
		if ow%2 == 0 {
			c = convCase{8, 2, 3, 2 * ow, 3, 7, 2, 3}
		}
		cases = append(cases, c)
	}
	pooled := 0 // cases that fanned out at width 2
	for _, c := range cases {
		x := nanWindow(Rand(rng, 1, c.n, c.cin, c.h, c.w))
		w := Rand(rng, 1, c.cout, c.cin, c.k, c.k)
		bias := Rand(rng, 1, c.cout)
		wantNoBias := convRef(x, w, nil, c.stride, c.pad)
		want := wantNoBias.Clone() // bias after the sum, as convRef adds it
		for i := range want.data {
			want.data[i] += bias.data[i/(want.shape[2]*want.shape[3])%c.cout]
		}
		for _, workers := range []int{2, 1} {
			SetMaxWorkers(workers)
			var got *Tensor
			if fannedOut(func() { got = Conv2DInto(nil, x, w, bias, c.stride, c.pad, nil) }) && workers == 2 {
				pooled++
			}
			if !bitEqual(got, want) {
				t.Errorf("Conv2D %+v workers=%d differs from im2col reference (max |Δ| %g)", c, workers, MaxAbsDiff(got, want))
			}
			if got := Conv2DInto(nil, x, w, nil, c.stride, c.pad, nil); !bitEqual(got, wantNoBias) {
				t.Errorf("Conv2D %+v workers=%d nil bias differs from im2col reference", c, workers)
			}
			ar := NewArena()
			for pass := 0; pass < 3; pass++ {
				got := Conv2DInto(nil, x, w, bias, c.stride, c.pad, ar)
				if !bitEqual(got, want) {
					t.Errorf("Conv2DInto %+v workers=%d arena pass %d differs from im2col reference", c, workers, pass)
				}
				ar.Release(got)
				poisonArena(ar)
			}
			dst := ar.NewNoZero(want.shape...)
			if got := Conv2DInto(dst, x, w, bias, c.stride, c.pad, ar); got != dst || !bitEqual(got, want) {
				t.Errorf("Conv2DInto %+v workers=%d into a stale destination differs from im2col reference", c, workers)
			}
		}
		SetMaxWorkers(0)
	}
	// The deep-K and many-block cases are each over two hand-offs of work.
	if pooled < 4 {
		t.Errorf("%d cases fanned out at width 2, want the 4 deep-K and many-block ones at least", pooled)
	}
}

func TestConv2DNilBias(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := Rand(rng, 1, 1, 2, 5, 5)
	w := Rand(rng, 1, 3, 2, 3, 3)
	got := Conv2DInto(nil, x, w, nil, 1, 1, nil)
	want := Conv2DNaive(x, w, nil, 1, 1)
	if !AllClose(got, want, 1e-4, 1e-4) {
		t.Fatalf("nil-bias conv mismatch")
	}
}

func TestConv2DOutputShape(t *testing.T) {
	x := New(2, 3, 32, 32)
	w := New(16, 3, 3, 3)
	out := Conv2DInto(nil, x, w, nil, 2, 1, nil)
	if !ShapeEq(out.Shape(), []int{2, 16, 16, 16}) {
		t.Fatalf("conv output shape = %v, want [2 16 16 16]", out.Shape())
	}
}

func TestConv2DChannelMismatchPanics(t *testing.T) {
	defer expectPanic(t, "channel mismatch")
	Conv2DInto(nil, New(1, 3, 8, 8), New(4, 2, 3, 3), nil, 1, 1, nil)
}

func TestConv2DEmptyOutputPanics(t *testing.T) {
	defer expectPanic(t, "empty output")
	Conv2DInto(nil, New(1, 1, 2, 2), New(1, 1, 5, 5), nil, 1, 0, nil)
}

// fannedOut runs f and reports whether it took the pooled path: whether
// some fanOut decision inside it returned more than one part.
func fannedOut(f func()) bool {
	before := fanOuts.Load()
	f()
	return fanOuts.Load() > before
}

// TestFanOutBoundary pins the fan-out rule at width 2 on the sizes it was
// priced for: 65,536 cheap elements cost less than the two hand-offs they
// would save half of, so they stay on the caller; a 131,072-element GELU
// tape (MT-DNN's feed-forward width) and a 3×3 conv over Wide&Deep's 56×56
// planes fan out.
func TestFanOutBoundary(t *testing.T) {
	SetMaxWorkers(2)
	defer SetMaxWorkers(0)
	if parts, _ := fanOut(1<<16, (1<<16)*nsStream); parts != 1 {
		t.Errorf("65,536 streamed elements split into %d parts, want 1", parts)
	}
	gelu := mustCompileChain(t, []Instr{{Op: ChainGELU}}, []int{64, 2048}, nil)
	if !fannedOut(func() { gelu.RunInPlace(New(64, 2048), nil, nil) }) {
		t.Error("a 131,072-element GELU tape ran serially")
	}
	rng := rand.New(rand.NewSource(17))
	x, w := Rand(rng, 1, 1, 64, 56, 56), Rand(rng, 1, 64, 64, 3, 3)
	if !fannedOut(func() { Conv2DInto(nil, x, w, nil, 1, 1, nil) }) {
		t.Error("a 64→64 3×3 conv over 56×56 ran serially")
	}
	SetMaxWorkers(1)
	if fannedOut(func() { gelu.RunInPlace(New(64, 2048), nil, nil) }) {
		t.Error("width 1 fanned out")
	}
}

// TestPlaneKernelsSplitByWork holds the fan-out of the per-plane and
// per-row kernels to the serial bits — planes and rows are independent — on
// inputs sized so that each kernel fans out at width 2: 2×33 planes of
// 56×60 and a 400×360 matrix, every one over two hand-offs of work.
func TestPlaneKernelsSplitByWork(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	x := Rand(rng, 1, 2, 33, 56, 60)
	gamma, beta, mean := Rand(rng, 1, 33), Rand(rng, 1, 33), Rand(rng, 1, 33)
	variance := randVariance(rng, 33)
	m := Rand(rng, 1, 400, 360)
	rowG, rowB := Rand(rng, 1, 360), Rand(rng, 1, 360)
	bias := Rand(rng, 1, 400)
	kernels := []struct {
		name string
		run  func() *Tensor
	}{
		{"MaxPool2D", func() *Tensor { return MaxPool2DInto(nil, x, 3, 2, 1, nil) }},
		{"AvgPool2D", func() *Tensor { return AvgPool2DInto(nil, x, 3, 2, 1, nil) }},
		{"GlobalAvgPool2D", func() *Tensor { return GlobalAvgPool2DInto(nil, x, nil) }},
		{"BatchNorm2D", func() *Tensor { return BatchNorm2DInto(nil, x, gamma, beta, mean, variance, 1e-5, nil) }},
		{"Transpose2D", func() *Tensor { return Transpose2DInto(nil, m, nil) }},
		{"Softmax", func() *Tensor { return SoftmaxInto(nil, m, nil) }},
		{"LayerNorm", func() *Tensor { return LayerNormInto(nil, m, rowG, rowB, 1e-5, nil) }},
		{"Linear+bias", func() *Tensor { return LinearInto(nil, m, m, bias, nil) }},
	}
	for _, k := range kernels {
		SetMaxWorkers(1)
		serial := k.run()
		SetMaxWorkers(2)
		var pooled *Tensor
		if !fannedOut(func() { pooled = k.run() }) {
			t.Errorf("%s: ran serially at width 2", k.name)
		}
		SetMaxWorkers(0)
		if !bitEqual(pooled, serial) {
			t.Errorf("%s: pooled and serial results differ", k.name)
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := MaxPool2DInto(nil, x, 2, 2, 0, nil)
	want := FromSlice([]float32{6, 8, 14, 16}, 1, 1, 2, 2)
	if !AllClose(out, want, 0, 0) {
		t.Fatalf("MaxPool2D = %v, want %v", out, want)
	}
}

// TestMaxPool2DMatchesDefinition checks the clipped-window loops against
// the per-tap definition (padding taps skipped) on odd sizes.
func TestMaxPool2DMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := Rand(rng, 1, 2, 3, 11, 9)
	for _, p := range [][3]int{{3, 2, 1}, {2, 2, 0}, {3, 1, 1}, {2, 3, 2}} {
		kernel, stride, pad := p[0], p[1], p[2]
		got := MaxPool2DInto(nil, x, kernel, stride, pad, nil)
		for idx := 0; idx < got.Numel(); idx++ {
			ow, oh := got.shape[3], got.shape[2]
			nc, oi, oj := idx/(oh*ow), idx/ow%oh, idx%ow
			want := float32(math.Inf(-1))
			for ki := 0; ki < kernel; ki++ {
				for kj := 0; kj < kernel; kj++ {
					ii, jj := oi*stride+ki-pad, oj*stride+kj-pad
					if ii >= 0 && ii < 11 && jj >= 0 && jj < 9 {
						want = max(want, x.data[nc*99+ii*9+jj])
					}
				}
			}
			if got.data[idx] != want {
				t.Fatalf("MaxPool2D k%d s%d p%d at %d = %g, want %g", kernel, stride, pad, idx, got.data[idx], want)
			}
		}
	}
}

func TestMaxPool2DWithPadding(t *testing.T) {
	x := FromSlice([]float32{-1, -2, -3, -4}, 1, 1, 2, 2)
	out := MaxPool2DInto(nil, x, 3, 2, 1, nil)
	// Padding cells are skipped (not treated as zero), so maxima stay negative.
	if out.At(0, 0, 0, 0) != -1 {
		t.Fatalf("padded MaxPool wrong: %v", out)
	}
}

// TestMaxPool2DBelowOldSentinel: the running maximum used to start at
// -3.4e38, which is greater than -MaxFloat32, so a window holding only
// values below it returned the sentinel instead of its maximum.
func TestMaxPool2DBelowOldSentinel(t *testing.T) {
	lowest, inf := float32(-math.MaxFloat32), float32(math.Inf(-1))
	x := FromSlice([]float32{
		lowest, inf, inf, inf,
		inf, inf, inf, inf,
	}, 1, 2, 2, 2)
	out := MaxPool2DInto(nil, x, 2, 2, 0, nil)
	if got := out.Data(); got[0] != lowest || got[1] != inf {
		t.Fatalf("MaxPool2D of windows below -3.4e38 = %v, want [%g %g]", got, lowest, inf)
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out := GlobalAvgPool2DInto(nil, x, nil)
	if !ShapeEq(out.Shape(), []int{1, 2}) || out.At(0, 0) != 2.5 || out.At(0, 1) != 25 {
		t.Fatalf("GlobalAvgPool2D = %v", out)
	}
}

func TestBatchNorm2DIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := Rand(rng, 1, 1, 3, 4, 4)
	gamma := Ones(3)
	beta := New(3)
	mean := New(3)
	variance := Ones(3)
	out := BatchNorm2DInto(nil, x, gamma, beta, mean, variance, 0, nil)
	if !AllClose(out, x, 1e-5, 1e-5) {
		t.Fatalf("identity batchnorm changed values by %g", MaxAbsDiff(out, x))
	}
}

func TestBatchNorm2DShiftScale(t *testing.T) {
	x := Full(2, 1, 1, 2, 2)
	gamma := Full(3, 1)
	beta := Full(1, 1)
	mean := Full(2, 1)
	variance := Ones(1)
	out := BatchNorm2DInto(nil, x, gamma, beta, mean, variance, 0, nil)
	// (2-2)/1*3+1 = 1 everywhere.
	if out.At(0, 0, 0, 0) != 1 {
		t.Fatalf("batchnorm math wrong: %v", out)
	}
}

// sqrt32Sixteen is sqrt32 before the convergence test: exactly sixteen
// Newton steps from z = x.
func sqrt32Sixteen(x float32) float32 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 16; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// TestSqrt32 checks the batch-norm square root against math.Sqrt, far
// outside [1e-8, 1e8] too, and that over a sweep of positive float32s
// (subnormals included) it keeps the bits of the sixteen-step version
// wherever those were within 1.5 ulp of √x.
func TestSqrt32(t *testing.T) {
	if got := sqrt32(4); got != 2 {
		t.Fatalf("sqrt32(4) = %v", got)
	}
	if got := sqrt32(0); got != 0 {
		t.Fatalf("sqrt32(0) = %v", got)
	}
	check := func(v float32) {
		t.Helper()
		want := math.Sqrt(float64(v))
		if got := sqrt32(v); math.Abs(float64(got)-want) > 1e-6*want {
			t.Fatalf("sqrt32(%g) = %g, want %g", v, got, want)
		}
	}
	for _, v := range []float32{1, 2, 100, 1e-4, 1e-12, 1e-10, 4e9, 1e10, 1e12, 3e38, math.SmallestNonzeroFloat32, math.MaxFloat32} {
		check(v)
	}
	for bits := uint32(1); bits < 0x7f800000; bits += 7919 {
		v := math.Float32frombits(bits)
		check(v)
		old, want := sqrt32Sixteen(v), math.Sqrt(float64(v))
		ulp := float64(math.Nextafter32(float32(want), math.MaxFloat32) - float32(want))
		if math.Abs(float64(old)-want) <= 1.5*ulp && sqrt32(v) != old {
			t.Fatalf("sqrt32(%g) = %g, the sixteen steps gave %g (within 1.5 ulp of %g)", v, sqrt32(v), old, want)
		}
	}
}

// maxPoolOracle is the max-pool loop before the branch-free kernel, kept
// as the reference: the `v > best` scan from −Inf over each window in
// row-major order, padding skipped.
func maxPoolOracle(dstAll, srcAll []float32, lo, hi, h, w, oh, ow, kernel, stride, pad int) {
	for nc := lo; nc < hi; nc++ {
		src := srcAll[nc*h*w : (nc+1)*h*w]
		dst := dstAll[nc*oh*ow : (nc+1)*oh*ow]
		for oi := 0; oi < oh; oi++ {
			iLo, iHi := max(0, oi*stride-pad), min(h, oi*stride-pad+kernel)
			for oj := 0; oj < ow; oj++ {
				jLo := max(0, oj*stride-pad)
				jHi := max(jLo, min(w, oj*stride-pad+kernel))
				best := float32(math.Inf(-1))
				for ii := iLo; ii < iHi; ii++ {
					for _, v := range src[ii*w+jLo : ii*w+jHi] {
						if v > best {
							best = v
						}
					}
				}
				dst[oi*ow+oj] = best
			}
		}
	}
}

// TestMaxPoolMatchesOracle holds MaxPool2DInto to maxPoolOracle bit for
// bit on inputs drawn mostly from {NaN, +0, −0, −Inf, ±1}, so windows hold
// −0 and +0 in both orders, NaN beside numbers, nothing but NaN (all of
// plane 0), nothing but −Inf, and ties — under ResNet's 3×3/s2/p1 and
// generic kernels, including windows that lie wholly in the padding, from
// a NaN-poisoned arena, serial and pooled.
func TestMaxPoolMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	pick := []float32{nan, 0, negZero, float32(math.Inf(-1)), 1, -1, 0, negZero}
	ar := NewArena()
	for _, s := range []struct{ n, c, h, w, kernel, stride, pad int }{
		{1, 3, 13, 17, 3, 2, 1},
		{2, 16, 60, 60, 3, 2, 1}, // 259,200 taps: over two hand-offs at width 2
		{1, 2, 11, 9, 2, 2, 0},
		{1, 2, 11, 9, 3, 1, 1},
		{1, 2, 11, 9, 2, 3, 2},
		{1, 2, 12, 10, 5, 2, 2},
		{1, 2, 7, 8, 4, 3, 1},
		{1, 2, 5, 5, 1, 2, 1}, // 1×1 windows at the corners lie in the padding
		{1, 1, 2, 2, 3, 1, 1},
		{1, 1, 1, 1, 3, 1, 1}, // one plane of one element: fewer than k rows and columns
		{1, 2, 0, 3, 1, 1, 1}, // planes with no rows: every window is empty
	} {
		x := New(s.n, s.c, s.h, s.w)
		for i := range x.data {
			if rng.Intn(4) == 0 {
				x.data[i] = rng.Float32()*4 - 2
			} else {
				x.data[i] = pick[rng.Intn(len(pick))]
			}
		}
		for i := 0; i < s.h*s.w; i++ {
			x.data[i] = nan
		}
		oh := (s.h+2*s.pad-s.kernel)/s.stride + 1
		ow := (s.w+2*s.pad-s.kernel)/s.stride + 1
		want := New(s.n, s.c, oh, ow)
		maxPoolOracle(want.data, x.data, 0, s.n*s.c, s.h, s.w, oh, ow, s.kernel, s.stride, s.pad)
		for _, workers := range []int{1, 2} {
			SetMaxWorkers(workers)
			poisonArena(ar)
			var got *Tensor
			if pooled := fannedOut(func() { got = MaxPool2DInto(nil, x, s.kernel, s.stride, s.pad, ar) }); workers == 2 && s.c == 16 && !pooled {
				t.Errorf("%+v: ran serially at width 2", s)
			}
			SetMaxWorkers(0)
			for i := range want.data {
				if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
					t.Fatalf("%+v (workers %d): output %d is %#x, the scan gives %#x",
						s, workers, i, math.Float32bits(got.data[i]), math.Float32bits(want.data[i]))
				}
			}
			ar.Release(got)
		}
	}
}
