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

// The float64 loops work in chunks of vchunk elements held on the stack:
// each builds its float64 arguments, converts the whole chunk in one
// expBatch or tanhBatch call (four lanes at a time on amd64), then finishes
// the per-element arithmetic in the order the scalar formula has.
const vchunk = 64

// sigmoidLoop computes dst[i] = float32(1 / (1 + math.Exp(-float64(src[i])))).
func sigmoidLoop(dst, src []float32) {
	src = src[:len(dst)]
	var e [vchunk]float64
	for lo := 0; lo < len(dst); lo += vchunk {
		d, s := dst[lo:min(lo+vchunk, len(dst))], src[lo:]
		ek := e[:len(d)]
		for i := range ek {
			ek[i] = -float64(s[i])
		}
		expBatch(ek, ek)
		for i, v := range ek {
			d[i] = float32(1 / (1 + v))
		}
	}
}

// tanhLoop computes dst[i] = float32(math.Tanh(float64(src[i]))).
func tanhLoop(dst, src []float32) {
	src = src[:len(dst)]
	var a, tmp [vchunk]float64
	for lo := 0; lo < len(dst); lo += vchunk {
		d, s := dst[lo:min(lo+vchunk, len(dst))], src[lo:]
		ak := a[:len(d)]
		for i := range ak {
			ak[i] = float64(s[i])
		}
		tanhBatch(ak, ak, tmp[:])
		for i, v := range ak {
			d[i] = float32(v)
		}
	}
}

// geluLoop computes the tanh form of GELU,
// dst[i] = float32(0.5·x·(1 + math.Tanh(c·(x + 0.044715·x³)))) with x = src[i].
func geluLoop(dst, src []float32) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	src = src[:len(dst)]
	var a, tmp [vchunk]float64
	for lo := 0; lo < len(dst); lo += vchunk {
		d, s := dst[lo:min(lo+vchunk, len(dst))], src[lo:]
		ak := a[:len(d)]
		for i := range ak {
			xf := float64(s[i])
			ak[i] = c * (xf + 0.044715*xf*xf*xf)
		}
		tanhBatch(ak, ak, tmp[:])
		for i, v := range ak {
			xf := float64(s[i])
			d[i] = float32(0.5 * xf * (1 + v))
		}
	}
}

// expLoop computes dst[i] = float32(math.Exp(float64(src[i]))).
func expLoop(dst, src []float32) {
	src = src[:len(dst)]
	var a [vchunk]float64
	for lo := 0; lo < len(dst); lo += vchunk {
		d, s := dst[lo:min(lo+vchunk, len(dst))], src[lo:]
		ak := a[:len(d)]
		for i := range ak {
			ak[i] = float64(s[i])
		}
		expBatch(ak, ak)
		for i, v := range ak {
			d[i] = float32(v)
		}
	}
}

func sqrtLoop(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = sqrtOf(src[i])
	}
}

// sqrtOf is a call rather than inline arithmetic: inlined, the compiler
// converts each element to float64 into a register still holding the
// previous element's result (CVTSS2SD merges into its destination), which
// chains every element behind the last one; a call takes each element in a
// freshly loaded register, so consecutive elements overlap.
//
//go:noinline
func sqrtOf(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// expGo is the portable expBatch: math.Exp per element.
func expGo(dst, src []float64) {
	src = src[:len(dst)]
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}

// tanhBatch computes dst[i] = math.Tanh(src[i]) bit for bit, using tmp (at
// least len(dst) long) as scratch; dst may be src. math.Tanh has no
// assembly version on amd64, so its Go body is the definition: one
// expBatch over 2|x| stands in for its Exp(2*z), and the regimes below are
// copied from $GOROOT/src/math/tanh.go (Cephes tanh.c) with its constants.
func tanhBatch(dst, src, tmp []float64) {
	src, tmp = src[:len(dst)], tmp[:len(dst)]
	for i, x := range src {
		tmp[i] = 2 * math.Abs(x)
	}
	expBatch(tmp, tmp)
	const MAXLOG = 8.8029691931113054295988e+01 // log(2**127)
	for i, x := range src {
		z := math.Abs(x)
		switch {
		case z > 0.5*MAXLOG:
			z = 1
			if x < 0 {
				z = -1
			}
		case z >= 0.625:
			s := tmp[i]
			z = 1 - 2/(s+1)
			if x < 0 {
				z = -z
			}
		case x == 0:
			z = x
		default:
			s := x * x
			z = x + x*s*((tanhP[0]*s+tanhP[1])*s+tanhP[2])/(((s+tanhQ[0])*s+tanhQ[1])*s+tanhQ[2])
		}
		dst[i] = z
	}
}

var tanhP = [...]float64{
	-9.64399179425052238628e-1,
	-9.92877231001918586564e1,
	-1.61468768441708447952e3,
}

var tanhQ = [...]float64{
	1.12811678491632931402e2,
	2.23548839060100448583e3,
	4.84406305325125486048e3,
}

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
