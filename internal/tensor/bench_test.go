package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks for the host tensor engine. These measure real
// wall-clock performance of the Go kernels (not virtual time) — useful when
// porting the engine to new hardware or tuning block sizes.

func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := Rand(rng, 1, n, n)
			y := Rand(rng, 1, n, n)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(x, y)
			}
		})
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
// four output positions leave only the filter rows to split.
func BenchmarkConv2D(b *testing.B) {
	for _, s := range []struct {
		name                          string
		cin, hw, cout, k, stride, pad int
	}{
		{"stem7x7s2", 3, 224, 64, 7, 2, 3},
		{"layer1", 64, 56, 64, 3, 1, 1},
		{"layer2", 128, 28, 128, 3, 1, 1},
		{"layer2down1x1s2", 64, 56, 128, 1, 2, 0},
		{"layer3", 256, 14, 256, 3, 1, 1},
		{"layer4", 512, 7, 512, 3, 1, 1},
		{"layer4at64", 512, 2, 512, 3, 1, 1},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			x := Rand(rng, 1, 1, s.cin, s.hw, s.hw)
			w := Rand(rng, 1, s.cout, s.cin, s.k, s.k)
			ar := NewArena()
			out := Conv2DInto(nil, x, w, nil, s.stride, s.pad, ar)
			flops := 2 * float64(out.Numel()) * float64(s.cin*s.k*s.k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Conv2DInto(out, x, w, nil, s.stride, s.pad, ar)
			}
			b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

func BenchmarkLSTMCell(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	h := 256
	x := Rand(rng, 1, 1, h)
	h0 := Rand(rng, 1, 1, h)
	c0 := Rand(rng, 1, 1, h)
	wx := Rand(rng, 1, 4*h, h)
	wh := Rand(rng, 1, 4*h, h)
	bias := Rand(rng, 1, 4*h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LSTMCell(x, h0, c0, wx, wh, bias)
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
