package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks for the host tensor engine. These measure real
// wall-clock performance of the Go kernels (not virtual time) — useful when
// porting the engine to new hardware or tuning block sizes. The GEMM and
// convolution cells run once per kernel tier this machine has (the last
// element of the name), so a tier's gain reads off adjacent lines.

// hostTiers lists the kernel tiers this machine runs, from the detected one
// down to the portable Go kernels.
func hostTiers() []kernelTier {
	ts := []kernelTier{tier}
	for t := tier; t > tierPortable; {
		t--
		ts = append(ts, t)
	}
	return ts
}

func (t kernelTier) String() string {
	return [...]string{"portable", "avx2", "avx512"}[t]
}

// setTier switches the package to kernel tier t and returns the undo.
func setTier(t kernelTier) (restore func()) {
	prev := tier
	tier = t
	return func() { tier = prev }
}

// reportGFLOPS replaces ns/op's reading with the rate of flops per op.
func reportGFLOPS(b *testing.B, flops float64) {
	b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}

// BenchmarkMatMul times square products and MT-DNN's feed-forward shape (64
// tokens × 512 → 2048). B is pinned, so its panels are packed once and the
// cells time the GEMM itself.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
	}{
		{"n=64", 64, 64, 64},
		{"n=256", 256, 256, 256},
		{"n=512", 512, 512, 512},
		{"mtdnn_ffn64x512x2048", 64, 512, 2048},
	} {
		rng := rand.New(rand.NewSource(1))
		x := Rand(rng, 1, s.m, s.k)
		y := Rand(rng, 1, s.k, s.n).MarkPinned()
		out := MatMul(x, y)
		for _, t := range hostTiers() {
			b.Run(s.name+"/"+t.String(), func(b *testing.B) {
				defer setTier(t)()
				for i := 0; i < b.N; i++ {
					MatMulInto(out, x, y, nil)
				}
				reportGFLOPS(b, 2*float64(s.m*s.n*s.k))
			})
		}
	}
}

func BenchmarkGEMV(b *testing.B) {
	// The batch-1 dense-layer shape that dominates inference.
	rng := rand.New(rand.NewSource(2))
	x := Rand(rng, 1, 1, 1024)
	w := Rand(rng, 1, 1024, 1024)
	bias := Rand(rng, 1, 1024)
	b.SetBytes(4 * 1024 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Linear(x, w, bias)
	}
}

// BenchmarkConv2D covers the ResNet-18 trunk at 224² — the stem, one 3×3
// per stage (wide-and-shallow K down to narrow-and-deep K, i.e. both split
// rules), a strided downsample — and the last stage at a 64² input, where
// four output positions leave only the filter rows to split. The x8 cells
// are the last three stages at a 64² input and the served batch of 8: planes
// of 64, 16 and 4 positions, the last two narrower than one block, so their
// blocks span images.
func BenchmarkConv2D(b *testing.B) {
	for _, s := range []struct {
		name                             string
		n, cin, hw, cout, k, stride, pad int
	}{
		{"stem7x7s2", 1, 3, 224, 64, 7, 2, 3},
		{"layer1", 1, 64, 56, 64, 3, 1, 1},
		{"layer2", 1, 128, 28, 128, 3, 1, 1},
		{"layer2down1x1s2", 1, 64, 56, 128, 1, 2, 0},
		{"layer3", 1, 256, 14, 256, 3, 1, 1},
		{"layer4", 1, 512, 7, 512, 3, 1, 1},
		{"layer4at64", 1, 512, 2, 512, 3, 1, 1},
		{"layer2at64x8", 8, 128, 8, 128, 3, 1, 1},
		{"layer3at64x8", 8, 256, 4, 256, 3, 1, 1},
		{"layer4at64x8", 8, 512, 2, 512, 3, 1, 1},
	} {
		rng := rand.New(rand.NewSource(3))
		x := Rand(rng, 1, s.n, s.cin, s.hw, s.hw)
		w := Rand(rng, 1, s.cout, s.cin, s.k, s.k)
		ar := NewArena()
		out := Conv2DInto(nil, x, w, nil, s.stride, s.pad, ar)
		flops := 2 * float64(out.Numel()) * float64(s.cin*s.k*s.k)
		for _, t := range hostTiers() {
			b.Run(s.name+"/"+t.String(), func(b *testing.B) {
				defer setTier(t)()
				for i := 0; i < b.N; i++ {
					Conv2DInto(out, x, w, nil, s.stride, s.pad, ar)
				}
				reportGFLOPS(b, flops)
			})
		}
	}
}

// BenchmarkRNNSeq covers the recurrent layers of the zoo — both Siamese
// LSTM layers, Wide&Deep's, MT-DNN's GRU task head — at batch 1 and at the
// served batch of 8. "seq" is the whole kernel per step (GFLOP/s over both
// GEMMs); "recur" and "gates" are the two halves of a step that stay in the
// time loop, the h·whᵀ sweep over the packed panel and the fused gate pass,
// so what is left of a step after the input projection was hoisted is
// visible part by part.
func BenchmarkRNNSeq(b *testing.B) {
	// perStep replaces ns/op (a whole sequence for "seq", one step for the
	// parts) by ns/step, so the three rows of a shape read on one scale.
	perStep := func(b *testing.B, steps int, flops float64) {
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N*steps)
		b.ReportMetric(ns, "ns/step")
		b.ReportMetric(0, "ns/op")
		if flops > 0 {
			b.ReportMetric(flops/ns, "GFLOP/s")
		}
	}
	for _, s := range []struct {
		name      string
		cell      *rnnCell
		t, in, hd int
	}{
		{"siamese_l0", &lstmCell, 80, 256, 320},
		{"siamese_l1", &lstmCell, 80, 320, 320},
		{"widedeep", &lstmCell, 100, 256, 256},
		{"mtdnn_gru", &gruCell, 64, 512, 256},
	} {
		for _, bs := range []int{1, 8} {
			rng := rand.New(rand.NewSource(4))
			n := s.cell.gates * s.hd
			x := Rand(rng, 1, bs, s.t, s.in)
			// Zoo initialisation (bound 1/√fan-in): the transcendentals' cost
			// depends on the magnitude of the pre-activations.
			wx := Rand(rng, float32(1/math.Sqrt(float64(s.in))), n, s.in).MarkPinned()
			wh := Rand(rng, float32(1/math.Sqrt(float64(s.hd))), n, s.hd).MarkPinned()
			bias := Rand(rng, 1, n)
			prefix := fmt.Sprintf("%s/B=%d/", s.name, bs)
			b.Run(prefix+"seq", func(b *testing.B) {
				ar := NewArena()
				for i := 0; i < b.N; i++ {
					ar.Release(rnnSeqInto(nil, s.cell, x, wx, wh, bias, false, ar))
				}
				perStep(b, s.t, 2*float64(bs*n*(s.in+s.hd)))
			})
			h := Rand(rng, 1, bs, s.hd)
			c := Rand(rng, 1, bs, s.hd)
			gx := Rand(rng, 1, bs, n)
			gh := New(bs, n)
			b.Run(prefix+"recur", func(b *testing.B) {
				bp, _ := packedB(wh, s.hd, n, true, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(gh.data)
					gemmPacked(gh.data, h.data, bp, bs, n, s.hd)
				}
				perStep(b, 1, 2*float64(bs*n*s.hd))
			})
			b.Run(prefix+"gates", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.cell.rows(gx.data, n, gh.data, h.data, c.data, nil, 0, s.hd, 0, bs)
				}
				perStep(b, 1, 0)
			})
		}
	}
}

// benchPoolShapes are the two shapes of the batch-norm and max-pool cells:
// the full-size stem's 1×64×112×112 and the served batch's 8×256×4×4 (the
// reduced Wide&Deep's layer 3, planes far below one tape sub-chunk).
var benchPoolShapes = []struct {
	name       string
	n, c, h, w int
}{
	{"stem", 1, 64, 112, 112},
	{"layer3at64x8", 8, 256, 4, 4},
}

// BenchmarkBatchNormChain times the streamed batch-norm lead under the two
// tapes Wide&Deep's batch-norm groups lower to, [relu] and [add relu], and
// with no tape (plain BatchNorm2DInto). Bytes are the tensors read and
// written once each.
func BenchmarkBatchNormChain(b *testing.B) {
	for _, s := range benchPoolShapes {
		rng := rand.New(rand.NewSource(6))
		shape := []int{s.n, s.c, s.h, s.w}
		x, res := Rand(rng, 1, shape...), Rand(rng, 1, shape...)
		gamma, beta, mean := Rand(rng, 1, s.c), Rand(rng, 1, s.c), Rand(rng, 1, s.c)
		variance := Rand(rng, 1, s.c).Apply(func(v float32) float32 { return v*v + 0.5 })
		for _, tc := range []struct {
			name   string
			instrs []Instr
			args   []*Tensor
		}{
			{"none", nil, nil},
			{"relu", []Instr{{Op: ChainReLU}}, nil},
			{"add_relu", []Instr{{Op: ChainAdd, Arg: 0, Src: SrcArg}, {Op: ChainReLU}}, []*Tensor{res}},
		} {
			var prog *Program
			if tc.instrs != nil {
				shapes := [][]int{}
				for _, a := range tc.args {
					shapes = append(shapes, a.Shape())
				}
				var err error
				if prog, err = CompileChain(tc.instrs, shape, shapes); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(s.name+"/"+tc.name, func(b *testing.B) {
				ar := NewArena()
				b.SetBytes(int64(4 * x.Numel() * (2 + len(tc.args))))
				for i := 0; i < b.N; i++ {
					ar.Release(BatchNorm2DChainInto(nil, x, gamma, beta, mean, variance, 1e-5, prog, tc.args, nil, ar))
				}
			})
		}
	}
}

// BenchmarkMaxPool times ResNet's 3×3/s2/p1 max-pool at the same shapes.
func BenchmarkMaxPool(b *testing.B) {
	for _, s := range benchPoolShapes {
		x := Rand(rand.New(rand.NewSource(7)), 1, s.n, s.c, s.h, s.w)
		b.Run(s.name, func(b *testing.B) {
			ar := NewArena()
			b.SetBytes(int64(4 * x.Numel()))
			for i := 0; i < b.N; i++ {
				ar.Release(MaxPool2DInto(nil, x, 3, 2, 1, ar))
			}
		})
	}
}

// BenchmarkTranscendentals reports ns/elem of the exp, sigmoid, tanh and
// GELU loops ("batch", once per kernel tier this machine has: the vector
// exp runs at the AVX2 tiers when the processor has FMA) against the same
// formula called per element over math ("math"). Arguments are N(0, 2²),
// the range activations see.
func BenchmarkTranscendentals(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(8))
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 2)
	}
	dst := make([]float32, n)
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		b.ReportMetric(0, "ns/op")
	}
	for _, f := range transcendentals {
		b.Run(f.name+"/math", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, x := range src {
					dst[j] = f.ref(x)
				}
			}
			perElem(b)
		})
		for _, t := range hostTiers() {
			b.Run(f.name+"/batch/"+t.String(), func(b *testing.B) {
				defer setTier(t)()
				for i := 0; i < b.N; i++ {
					f.loop(dst, src)
				}
				perElem(b)
			})
		}
	}
}

func BenchmarkSoftmax(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := Rand(rng, 1, 64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(x)
	}
}

func BenchmarkParallelForOverhead(b *testing.B) {
	buf := make([]float32, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelFor(len(buf), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				buf[j]++
			}
		})
	}
}

// BenchmarkRand times weight initialisation per element: the bulk fill from
// a *RNG against the per-element path over a *rand.Rand, which draws the
// same bits.
func BenchmarkRand(b *testing.B) {
	const n = 1 << 20
	for _, s := range []struct {
		name string
		src  rand.Source
	}{
		{"RNG", NewRNG(1)},
		{"math_rand", rand.New(rand.NewSource(1))},
	} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Rand(s.src, 1, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
