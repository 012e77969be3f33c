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

func tanhExp(dst, src, e []float64) { tanhExpGo(dst, src, e) }

func geluArg(a, e []float64, src []float32) { geluArgGo(a, e, src) }

func geluOut(dst, src []float32, t []float64) { geluOutGo(dst, src, t) }

func packRows(d []float32, dOuter, dInner int, src []float32, base, sOuter, sInner, outer, inner, stride, lo, hi, run int) {
	packRowsGo(d, dOuter, dInner, src, base, sOuter, sInner, outer, inner, stride, lo, hi, run)
}

func fillChunks(dst []float32, feed, tap []uint64, bound float32) (int, bool) { return 0, false }

func packBTransposed(bp, w []float32, k, n, ld, lo, hi int) {
	packBTransposedGo(bp, w, k, n, ld, lo, hi)
}

func kern8(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc, np int) {
	kern8Go(c, ldc, a, lda, p, pstride, kc, np)
}

func kern4(c []float32, ldc int, a []float32, lda int, p []float32, pstride, kc, np int) {
	kern4Go(c, ldc, a, lda, p, pstride, kc, np)
}

func kern1(c, a, p []float32, pstride, kc, np int) {
	kern1Go(c, a, p, pstride, kc, np)
}
