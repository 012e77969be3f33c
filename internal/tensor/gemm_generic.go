//go:build !amd64 || purego

package tensor

// Without the amd64 assembly the portable Go kernels are the only path.

// tier stays tierPortable; it is a variable only so that the tests and
// benchmarks that walk the tiers compile on every platform.
var tier = tierPortable

func maximumLoop(dst, a, b []float32) { maximumGo(dst, a, b) }

func maximumScalar(dst, a []float32, s float32) { maximumScalarGo(dst, a, s) }

func reluLoop(dst, src []float32) { reluGo(dst, src) }

func expBatch(dst, src []float64) { expGo(dst, src) }

func kern8(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc int) {
	kern8Go(c, ldc, a, lda, p, pstride, kc)
}

func kern4(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc, np int) {
	kern4Go(c, ldc, a, lda, p, pstride, kc, np)
}

func kern1(c, a, p []float32, pstride, kc, np int) {
	kern1Go(c, a, p, pstride, kc, np)
}
