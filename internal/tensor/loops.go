package tensor

import "math"

// The elementwise arithmetic, written once. Every registered elementwise op
// (into.go) and every epilogue-tape instruction (chain.go) runs one of these
// loops, so a fused chain and op-by-op execution agree bit for bit by
// construction rather than by keeping two copies of each formula equal. A
// loop takes equal-length slices (dst may be either operand) and keeps the
// arithmetic inline: no call per element.

// unaryLoop computes dst[i] = f(src[i]).
type unaryLoop func(dst, src []float32)

// binaryLoop computes dst[i] = a[i] ∘ b[i].
type binaryLoop func(dst, a, b []float32)

// scalarLoop computes dst[i] = a[i] ∘ s, or s ∘ a[i] for the Rev loops.
type scalarLoop func(dst, a []float32, s float32)

// The loops by opcode. reluLoop, maximumLoop and maximumScalar use VMAXPS
// on amd64 (gemm_amd64.go) and the portable reluGo / maximumGo /
// maximumScalarGo elsewhere.
var (
	unaryLoops = [...]unaryLoop{
		ChainReLU: reluLoop, ChainSigmoid: sigmoidLoop, ChainTanh: tanhLoop,
		ChainGELU: geluLoop, ChainExp: expLoop, ChainSqrt: sqrtLoop,
	}
	binaryLoops = [...]binaryLoop{
		ChainAdd: addLoop, ChainSub: subLoop, ChainMul: mulLoop,
		ChainDiv: divLoop, ChainMaximum: maximumLoop,
	}
	// scalarLoops[op][0] computes a ∘ s, [1] the Rev form s ∘ a.
	scalarLoops = [...][2]scalarLoop{
		ChainAdd:     {addScalar, addScalarRev},
		ChainSub:     {subScalar, subScalarRev},
		ChainMul:     {mulScalar, mulScalarRev},
		ChainDiv:     {divScalar, divScalarRev},
		ChainMaximum: {maximumScalar, maximumScalarRev},
	}
)

func scalarLoopOf(op ChainOp, rev bool) scalarLoop {
	if rev {
		return scalarLoops[op][1]
	}
	return scalarLoops[op][0]
}

// rowWalk computes dst = a ∘ row (row ∘ a when rev) over a chunk that starts
// at flat index base of a stream whose rows are len(row) long. It walks the
// row alongside the chunk, one loop call per row segment, instead of taking
// a modulus per element.
func rowWalk(loop binaryLoop, dst, a []float32, base int, row []float32, rev bool) {
	j := base % len(row)
	for len(dst) > 0 {
		n := min(len(dst), len(row)-j)
		if rev {
			loop(dst[:n], row[j:j+n], a[:n])
		} else {
			loop(dst[:n], a[:n], row[j:j+n])
		}
		dst, a, j = dst[n:], a[n:], 0
	}
}

// reluGo is the portable body of reluLoop, x > 0 ? x : 0 without a
// branch: x > 0 exactly when its bits, read as an unsigned integer, lie in
// [1, +Inf] — NaN, −0 and every negative fall outside and come out +0.
func reluGo(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		b := math.Float32bits(src[i])
		keep := uint32((int64(b-1) - 0x7f800000) >> 63) // all ones iff b-1 < 0x7f800000
		dst[i] = math.Float32frombits(b & keep)
	}
}

// maximumGo is the portable body of maximumLoop: x > y ? x : y.
func maximumGo(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		x, y := a[i], b[i]
		if x > y {
			dst[i] = x
		} else {
			dst[i] = y
		}
	}
}

// The float64 loops call their scalar kernel once per element instead of
// inlining it. Inlined, the compiler converts each element to float64 into
// a register still holding the previous element's result (CVTSS2SD merges
// into its destination), which chains every element's exp or tanh behind
// the last one's: 2.5× slower measured on GELU. A call takes each element
// in a freshly loaded register, so consecutive elements overlap.

func sigmoidLoop(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = sigmoidOf(src[i])
	}
}

func tanhLoop(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = tanhOf(src[i])
	}
}

func geluLoop(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = geluOf(src[i])
	}
}

func expLoop(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = expOf(src[i])
	}
}

func sqrtLoop(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = sqrtOf(src[i])
	}
}

//go:noinline
func sigmoidOf(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }

//go:noinline
func tanhOf(x float32) float32 { return float32(math.Tanh(float64(x))) }

//go:noinline
func geluOf(x float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	xf := float64(x)
	return float32(0.5 * xf * (1 + math.Tanh(c*(xf+0.044715*xf*xf*xf))))
}

//go:noinline
func expOf(x float32) float32 { return float32(math.Exp(float64(x))) }

//go:noinline
func sqrtOf(x float32) float32 { return float32(math.Sqrt(float64(x))) }

func addLoop(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func subLoop(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

func mulLoop(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func divLoop(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] / b[i]
	}
}

func addScalar(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + s
	}
}

func addScalarRev(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = s + a[i]
	}
}

func subScalar(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - s
	}
}

func subScalarRev(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = s - a[i]
	}
}

func mulScalar(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * s
	}
}

func mulScalarRev(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = s * a[i]
	}
}

func divScalar(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] / s
	}
}

func divScalarRev(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = s / a[i]
	}
}

// maximumScalarGo is the portable body of maximumScalar: x > s ? x : s.
func maximumScalarGo(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		if x := a[i]; x > s {
			dst[i] = x
		} else {
			dst[i] = s
		}
	}
}

func maximumScalarRev(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		if y := a[i]; s > y {
			dst[i] = s
		} else {
			dst[i] = y
		}
	}
}
