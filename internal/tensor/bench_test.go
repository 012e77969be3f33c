package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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
		out := MatMulInto(nil, x, y, nil)
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

// BenchmarkGEMV times the batch-1 dense-layer shape that dominates
// inference. The weight is pinned, as a model's are, so its panels are
// packed once and the loop times the product itself.
func BenchmarkGEMV(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := Rand(rng, 1, 1, 1024)
	w := Rand(rng, 1, 1024, 1024).MarkPinned()
	bias := Rand(rng, 1, 1024)
	b.SetBytes(4 * 1024 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LinearInto(nil, x, w, bias, nil)
	}
}

// BenchmarkConv2D covers the ResNet-18 trunk at 224² — the stem, one 3×3
// per stage (wide-and-shallow K down to narrow-and-deep K, i.e. both split
// rules), a strided downsample — and the last stage at a 64² input, where
// four output positions leave only the filter rows to split. The x8 cells
// are the last three stages at a 64² input and the served batch of 8: planes
// of 64, 16 and 4 positions, the last two narrower than one block, so their
// blocks span images. Every other cell reuses one filter, which stays
// cache-hot; the cold cells rotate over distinct filters totalling at least
// 64 MB, as a model's layers do, so the filter streams from memory each call.
func BenchmarkConv2D(b *testing.B) {
	for _, s := range []struct {
		name                             string
		n, cin, hw, cout, k, stride, pad int
		cold                             bool
	}{
		{"stem7x7s2", 1, 3, 224, 64, 7, 2, 3, false},
		{"layer1", 1, 64, 56, 64, 3, 1, 1, false},
		{"layer2", 1, 128, 28, 128, 3, 1, 1, false},
		{"layer2down1x1s2", 1, 64, 56, 128, 1, 2, 0, false},
		{"layer3", 1, 256, 14, 256, 3, 1, 1, false},
		{"layer4", 1, 512, 7, 512, 3, 1, 1, false},
		{"layer4cold", 1, 512, 7, 512, 3, 1, 1, true},
		{"layer4at64", 1, 512, 2, 512, 3, 1, 1, false},
		{"layer4at64cold", 1, 512, 2, 512, 3, 1, 1, true},
		{"layer2at64x8", 8, 128, 8, 128, 3, 1, 1, false},
		{"layer3at64x8", 8, 256, 4, 256, 3, 1, 1, false},
		{"layer4at64x8", 8, 512, 2, 512, 3, 1, 1, false},
	} {
		rng := rand.New(rand.NewSource(3))
		x := Rand(rng, 1, s.n, s.cin, s.hw, s.hw)
		ws := []*Tensor{Rand(rng, 1, s.cout, s.cin, s.k, s.k)}
		for s.cold && len(ws)*4*ws[0].Numel() < 64<<20 {
			ws = append(ws, Rand(rng, 1, s.cout, s.cin, s.k, s.k))
		}
		ar := NewArena()
		out := Conv2DInto(nil, x, ws[0], nil, s.stride, s.pad, ar)
		flops := 2 * float64(out.Numel()) * float64(s.cin*s.k*s.k)
		for _, t := range hostTiers() {
			b.Run(s.name+"/"+t.String(), func(b *testing.B) {
				defer setTier(t)()
				for i := 0; i < b.N; i++ {
					Conv2DInto(out, x, ws[i%len(ws)], nil, s.stride, s.pad, ar)
				}
				reportGFLOPS(b, flops)
			})
		}
	}
}

// BenchmarkConvPack times the im2col pack alone — packPatches over every
// column panel of BenchmarkConv2D's 3×3 and 7×7 shapes, block by block at
// the conv's own block size, on one core — and reports it per panel; ns/op
// is one whole conv's pack.
func BenchmarkConvPack(b *testing.B) {
	for _, s := range []struct {
		name                       string
		n, cin, hw, k, stride, pad int
	}{
		{"stem7x7s2", 1, 3, 224, 7, 2, 3},
		{"layer1", 1, 64, 56, 3, 1, 1},
		{"layer2", 1, 128, 28, 3, 1, 1},
		{"layer3", 1, 256, 14, 3, 1, 1},
		{"layer4", 1, 512, 7, 3, 1, 1},
		{"layer2at64x8", 8, 128, 8, 3, 1, 1},
		{"layer3at64x8", 8, 256, 4, 3, 1, 1},
		{"layer4at64x8", 8, 512, 2, 3, 1, 1},
	} {
		o := (s.hw+2*s.pad-s.k)/s.stride + 1
		g := convGeom{cin: s.cin, h: s.hw, w: s.hw, kh: s.k, kw: s.k, stride: s.stride, pad: s.pad, oh: o, ow: o}
		k, imgSize := s.cin*s.k*s.k, s.cin*s.hw*s.hw
		bw, fold := convBlocking(s.n, k, (o*o+nr-1)/nr, effectiveWorkers())
		np := (fold*o*o + nr - 1) / nr // panels per group of fold images
		x := Rand(rand.New(rand.NewSource(3)), 1, s.n, s.cin, s.hw, s.hw)
		dst := make([]float32, bw*k*nr)
		for _, t := range hostTiers() {
			b.Run(s.name+"/"+t.String(), func(b *testing.B) {
				defer setTier(t)()
				for i := 0; i < b.N; i++ {
					for grp := 0; grp < s.n/fold; grp++ {
						imgs := x.data[grp*fold*imgSize : (grp+1)*fold*imgSize]
						for jt0 := 0; jt0 < np; jt0 += bw {
							g.packPatches(dst, imgs, jt0, min(jt0+bw, np))
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.n/fold*np), "ns/panel")
			})
		}
	}
}

// BenchmarkRNNSeq covers the recurrent layers of the zoo — both Siamese
// LSTM layers, Wide&Deep's, MT-DNN's GRU task head — at batch 1 and at the
// served batch of 8. "seq" is the whole kernel per step (GFLOP/s over both
// GEMMs), once at width 1 and once at the pool's width, so what the
// hidden-unit split of the time loop buys reads off adjacent lines; "recur"
// and "gates" are the two halves of a width-1 step that stay in the time
// loop, the h·whᵀ sweep over the packed panel and the fused gate pass, so
// what is left of a step after the input projection was hoisted is visible
// part by part.
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
	widths := []int{1}
	if w := runtime.GOMAXPROCS(0); w > 1 {
		widths = append(widths, w)
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
			for _, w := range widths {
				b.Run(fmt.Sprintf("%sseq/w=%d", prefix, w), func(b *testing.B) {
					SetMaxWorkers(w)
					defer SetMaxWorkers(0)
					ar := NewArena()
					for i := 0; i < b.N; i++ {
						ar.Release(rnnSeqInto(nil, s.cell, x, wx, wh, bias, false, ar))
					}
					perStep(b, s.t, 2*float64(bs*n*(s.in+s.hd)))
				})
			}
			h := Rand(rng, 1, bs, s.hd)
			c := Rand(rng, 1, bs, s.hd)
			gx := Rand(rng, 1, bs, n)
			gh := New(bs, n)
			b.Run(prefix+"recur", func(b *testing.B) {
				bp, _ := packedB(wh, s.hd, n, true, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(gh.data)
					gemmBlock(gh.data, n, h.data, s.hd, bp, 0, bs, packedPanels(n), n, s.hd)
				}
				perStep(b, 1, 2*float64(bs*n*s.hd))
			})
			b.Run(prefix+"gates", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.cell.rows(rnnStep{gx: gx.data, gh: gh.data, hIn: h.data, hOut: h.data, c: c.data,
						ldx: n, ldIn: s.hd, ldOut: s.hd, hd: s.hd, b: bs}, 0, s.hd)
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
		variance := randVariance(rng, s.c)
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
// exp, tanh and GELU stages run at the AVX2 tiers when the processor has
// FMA) against the same formula called per element over math ("math"), at
// two argument spreads: "act", N(0, 2²), where most tanh arguments reach
// the exp regime, and "ffn", N(0, 0.6²), where about 80 % of GELU's tanh
// arguments stay in the rational regime, as in MT-DNN's feed-forward layers.
func BenchmarkTranscendentals(b *testing.B) {
	const n = 4096
	dst := make([]float32, n)
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		b.ReportMetric(0, "ns/op")
	}
	for _, d := range []struct {
		name  string
		sigma float64
	}{{"act", 2}, {"ffn", 0.6}} {
		rng := rand.New(rand.NewSource(8))
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64() * d.sigma)
		}
		for _, f := range transcendentals {
			b.Run(f.name+"/"+d.name+"/math", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j, x := range src {
						dst[j] = f.ref(x)
					}
				}
				perElem(b)
			})
			for _, t := range hostTiers() {
				b.Run(f.name+"/"+d.name+"/batch/"+t.String(), func(b *testing.B) {
					defer setTier(t)()
					for i := 0; i < b.N; i++ {
						f.loop(dst, src)
					}
					perElem(b)
				})
			}
		}
	}
}

// BenchmarkLinearGELU times MT-DNN's feed-forward up-projection, 64 tokens
// × 512 → 2048 with a pinned weight, as the plain dense layer ("dense") and
// as the fused dense + GELU group the compiler builds ("dense+gelu"), once
// per kernel tier: the difference is the GELU tape's share of the layer.
// The weights are scaled so the outputs spread about N(0, 0.6²), the
// "ffn" spread of BenchmarkTranscendentals.
func BenchmarkLinearGELU(b *testing.B) {
	const m, k, n = 64, 512, 2048
	rng := rand.New(rand.NewSource(3))
	x := Rand(rng, 1, m, k)
	w := Rand(rng, float32(1.8/math.Sqrt(k)), n, k).MarkPinned()
	bias := Rand(rng, 0.05, n)
	gelu, err := CompileChain([]Instr{{Op: ChainGELU}}, []int{m, n}, nil)
	if err != nil {
		b.Fatal(err)
	}
	out := New(m, n)
	for _, c := range []struct {
		name string
		p    *Program
	}{{"dense", nil}, {"dense+gelu", gelu}} {
		for _, t := range hostTiers() {
			b.Run(c.name+"/"+t.String(), func(b *testing.B) {
				defer setTier(t)()
				for i := 0; i < b.N; i++ {
					LinearChainInto(out, x, w, bias, c.p, nil, nil, nil)
				}
			})
		}
	}
}

// BenchmarkAttention times one MT-DNN encoder layer's attention, 64 tokens,
// D = 512, 8 heads, once per kernel tier: "core" is AttentionInto alone,
// "layer" the whole mha op — the 512 → 1536 QKV projection, the core and
// the biased output projection, pinned weights, arena scratch. On a 2-vCPU
// Xeon (family 6 model 207, avx512 tier), over 10 alternating runs a side,
// the op took 2.3–3.0 ms as the loop this replaced (three D×D projections
// per batch row, per-head copies of q, k and v) and 1.8–2.6 ms as it is.
func BenchmarkAttention(b *testing.B) {
	const seq, d, heads = 64, 512, 8
	rng := rand.New(rand.NewSource(4))
	x := Rand(rng, 1, seq, d)
	wqkv := Rand(rng, float32(1/math.Sqrt(d)), 3*d, d).MarkPinned()
	wo := Rand(rng, float32(1/math.Sqrt(d)), d, d).MarkPinned()
	bias := Rand(rng, 0.05, d)
	scale := float32(1 / math.Sqrt(d/heads))
	qkv, ctx, out := New(1, seq, 3*d), New(1, seq, d), New(seq, d)
	LinearInto(qkv.Reshape(seq, 3*d), x, wqkv, nil, nil)
	ar := NewArena()
	for _, t := range hostTiers() {
		b.Run("core/"+t.String(), func(b *testing.B) {
			defer setTier(t)()
			for i := 0; i < b.N; i++ {
				AttentionInto(ctx, qkv, heads, scale, ar)
			}
		})
		b.Run("layer/"+t.String(), func(b *testing.B) {
			defer setTier(t)()
			for i := 0; i < b.N; i++ {
				LinearInto(qkv.Reshape(seq, 3*d), x, wqkv, nil, ar)
				AttentionInto(ctx, qkv, heads, scale, ar)
				LinearInto(out, ctx.Reshape(seq, d), wo, bias, ar)
			}
		})
	}
}

func BenchmarkSoftmax(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := Rand(rng, 1, 64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxInto(nil, x, nil)
	}
}

// BenchmarkParallelForOverhead runs 65,536 streamed elements through
// ParallelForChunked with the parts and grain fanOut picks for them — one
// part, as they are under two hand-offs' worth — so it times the serial
// loop that prices nsStream.
func BenchmarkParallelForOverhead(b *testing.B) {
	buf := make([]float32, 1<<16)
	parts, grain := fanOut(len(buf), float64(len(buf))*nsStream)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelForChunked(len(buf), parts, grain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				buf[j]++
			}
		})
	}
}

// BenchmarkSplitBreakEven times streamed loops of one, two and four
// hand-offs' worth of elements run serially and split two ways through
// ParallelForChunked, whatever fanOut would decide: run at -cpu 2, it
// locates the width-2 break-even that fanOut's rule puts at two hand-offs.
func BenchmarkSplitBreakEven(b *testing.B) {
	for _, hand := range []int{1, 2, 4} {
		n := hand * int(nsHandOff/nsStream)
		buf := make([]float32, n)
		body := func(lo, hi int) {
			for j := lo; j < hi; j++ {
				buf[j]++
			}
		}
		b.Run(fmt.Sprintf("elems=%d/serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body(0, n)
			}
		})
		b.Run(fmt.Sprintf("elems=%d/split", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ParallelForChunked(n, 2, n/8, body)
			}
		})
	}
}

// BenchmarkPoolWake reports the delay from handing a task to the worker
// pool until a worker starts it, while the sender stays busy the way a
// ParallelForChunked caller runs its own block: right after the previous
// hand-off (gap=0) and after the process idled for a millisecond, long
// enough for the workers' threads to park (gap=1ms), the case of a kernel
// called once per step of a model. It is why a step of tens of microseconds
// gets no hand-off of its own (stepLoop).
func BenchmarkPoolWake(b *testing.B) {
	poolOnce.Do(startPool)
	for _, gap := range []time.Duration{0, time.Millisecond} {
		b.Run(fmt.Sprintf("gap=%v", gap), func(b *testing.B) {
			// Checked per sub-benchmark: -cpu sets GOMAXPROCS for each.
			if runtime.GOMAXPROCS(0) < 2 {
				b.Skip("needs a second P for the worker to start on")
			}
			var total time.Duration
			for i := 0; i < b.N; i++ {
				if gap > 0 {
					time.Sleep(gap)
				}
				var started atomic.Int64
				t0 := time.Now()
				poolTasks <- func() { started.Store(int64(time.Since(t0)) + 1) }
				for started.Load() == 0 {
				}
				total += time.Duration(started.Load() - 1)
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/wake")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkRand times weight initialisation per element: the bulk fill from
// a *RNG on the vector path (fillPS, where the machine has it) and on the
// scalar loop (at the portable tier), against the per-element path over a
// *rand.Rand, which draws the same bits.
func BenchmarkRand(b *testing.B) {
	const n = 1 << 20
	for _, s := range []struct {
		name string
		src  rand.Source
		tier kernelTier
	}{
		{"RNG/vector", NewRNG(1), tier},
		{"RNG/scalar", NewRNG(1), tierPortable},
		{"math_rand", rand.New(rand.NewSource(1)), tier},
	} {
		b.Run(s.name, func(b *testing.B) {
			defer setTier(s.tier)()
			if s.name == "RNG/vector" && !vectorFill() {
				b.Skip("no vector fill on this machine")
			}
			for i := 0; i < b.N; i++ {
				Rand(s.src, 1, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}

// BenchmarkPackWeight times packWeight, a pinned dense weight's pack on its
// first product, for MT-DNN's FFN (2048×512) and QKV (1536×512) weights per
// tier, in ns per weight element: the 8×8 register transpose from the AVX2
// tier up, the Go loop at the portable tier. Large weights fan out as in a
// run.
func BenchmarkPackWeight(b *testing.B) {
	for _, s := range []struct {
		name string
		n, k int
	}{
		{"mtdnn_ffn2048x512", 2048, 512},
		{"mtdnn_qkv1536x512", 1536, 512},
	} {
		w := Rand(NewRNG(1), 1, s.n, s.k).Data()
		bp := make([]float32, packedSize(s.k, s.n))
		for _, t := range hostTiers() {
			b.Run(s.name+"/"+t.String(), func(b *testing.B) {
				defer setTier(t)()
				for i := 0; i < b.N; i++ {
					packWeight(bp, w, s.k, s.n, true)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.n*s.k), "ns/elem")
			})
		}
	}
}
