//go:build !purego

#include "textflag.h"

// expPD is math.Exp's amd64 FMA path ($GOROOT/src/math/exp_amd64.s, the
// avxfma branch of archExp: Shibata's method, ISC'10) replayed four lanes
// at a time. Every lane runs the same IEEE operations in the same order as
// the scalar code — the LOG2E product rounded to an int32 under the default
// rounding mode, the two-part LN2 reduction in fused negated multiply-adds,
// the scaling by 1/16, the fused Taylor chain, four (y+2)·y squarings whose
// last is fused with the +1, and the ldexp by a constructed power of two —
// so each result is archExp's bit for bit. The scalar code branches only on
// non-finite input, x > Overflow, and a biased exponent outside (0, 0x7FF);
// for |x| ≤ 700 the exponent lies in [13, 2033], so none of those branches
// is taken and the vector body is the whole computation. A group of four is
// accepted only when every lane satisfies |x| ≤ 700 (an ordered compare, so
// NaN fails); the kernel stops at the first group that does not and returns
// how many elements it wrote, leaving that group and the tail to math.Exp.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// Every constant is stored four times over: a 256-bit memory operand.
#define PD4(off, v) \
	DATA vexpdata<>+(off+0)(SB)/8, v; \
	DATA vexpdata<>+(off+8)(SB)/8, v; \
	DATA vexpdata<>+(off+16)(SB)/8, v; \
	DATA vexpdata<>+(off+24)(SB)/8, v

PD4(0, $0x7fffffffffffffff) // |x| mask
PD4(32, $700.0)
PD4(64, $LOG2E)
PD4(96, $LN2U)
PD4(128, $LN2L)
PD4(160, $0.0625)
PD4(192, $2.4801587301587301587e-5)
PD4(224, $1.9841269841269841270e-4)
PD4(256, $1.3888888888888888889e-3)
PD4(288, $8.3333333333333333333e-3)
PD4(320, $4.1666666666666666667e-2)
PD4(352, $1.6666666666666666667e-1)
PD4(384, $0.5)
PD4(416, $1.0)
PD4(448, $2.0)
DATA vexpdata<>+480(SB)/8, $0x000003ff000003ff // exponent bias, 4 × int32
DATA vexpdata<>+488(SB)/8, $0x000003ff000003ff
// tanh and GELU, $GOROOT/src/math/tanh.go and geluLoop's constants.
PD4(496, $0x8000000000000000) // sign mask
PD4(528, $0.625)
PD4(560, $44.014845965556527147994) // 0.5·MAXLOG
PD4(592, $-9.64399179425052238628e-1) // tanhP
PD4(624, $-9.92877231001918586564e1)
PD4(656, $-1.61468768441708447952e3)
PD4(688, $1.12811678491632931402e2) // tanhQ
PD4(720, $2.23548839060100448583e3)
PD4(752, $4.84406305325125486048e3)
PD4(784, $0.044715)
PD4(816, $0.7978845608028654) // sqrt(2/pi)
GLOBL vexpdata<>(SB), RODATA|NOPTR, $848

// func expPD(dst, src *float64, n int) (done int)
// dst[i] = math.Exp(src[i]) for i < done: whole groups of four from the
// start, up to the first group with a lane outside [-700, 700] or the last
// whole group. dst may be src.
TEXT ·expPD(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX
	JMP  cond

loop:
	VMOVUPD (SI)(AX*8), Y0
	VANDPD  vexpdata<>+0(SB), Y0, Y1
	VCMPPD  $0x12, vexpdata<>+32(SB), Y1, Y1 // |x| <= 700, ordered, quiet
	VMOVMSKPD Y1, BX
	CMPQ    BX, $15
	JNE     done

	// k = round(x·LOG2E); r = ((x - k·LN2U) - k·LN2L) / 16
	VMULPD       vexpdata<>+64(SB), Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD vexpdata<>+96(SB), Y1, Y0
	VFNMADD231PD vexpdata<>+128(SB), Y1, Y0
	VMULPD       vexpdata<>+160(SB), Y0, Y0

	// Taylor series: p = (((((((c7·r + c6)·r + c5)·r + c4)·r + c3)·r + 1/2)·r + 1)
	VMOVUPD     vexpdata<>+192(SB), Y1
	VFMADD213PD vexpdata<>+224(SB), Y0, Y1
	VFMADD213PD vexpdata<>+256(SB), Y0, Y1
	VFMADD213PD vexpdata<>+288(SB), Y0, Y1
	VFMADD213PD vexpdata<>+320(SB), Y0, Y1
	VFMADD213PD vexpdata<>+352(SB), Y0, Y1
	VFMADD213PD vexpdata<>+384(SB), Y0, Y1
	VFMADD213PD vexpdata<>+416(SB), Y0, Y1

	// y = r·p = e^(16r) - 1 after four squarings (y+2)·y, the last + 1.
	VMULPD      Y1, Y0, Y0
	VADDPD      vexpdata<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      vexpdata<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      vexpdata<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      vexpdata<>+448(SB), Y0, Y1
	VFMADD213PD vexpdata<>+416(SB), Y1, Y0

	// · 2^k, built as the float64 with biased exponent k + 1023.
	VPADDD    vexpdata<>+480(SB), X2, X2
	VPMOVSXDQ X2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX

cond:
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, done+24(FP)
	VZEROUPPER
	RET

// func tanhPD(dst, src, e *float64, n int)
// dst[i] = math.Tanh(src[i]) for every i below n rounded down to a multiple
// of four, given e[i] = math.Exp(2|src[i]|). Every lane evaluates all of
// math/tanh.go's regimes with plain multiplies, adds and divides in the
// order the Go code has them (no FMA: the compiler fuses none on amd64),
// then keeps the one its switch takes: the rational below 0.625 (which
// NaN falls through to), x itself at ±0, 1 − 2/(e+1) carrying x's sign
// from 0.625, ±1 above 0.5·MAXLOG. dst may be src.
TEXT ·tanhPD(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   e+16(FP), DX
	MOVQ   n+24(FP), CX
	ANDQ   $-4, CX
	XORQ   AX, AX
	VXORPD Y15, Y15, Y15
	JMP    tcond

tloop:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y0, Y0, Y1 // s = x·x

	// x + ((x·s)·((P0·s + P1)·s + P2)) / (((s + Q0)·s + Q1)·s + Q2)
	VMULPD vexpdata<>+592(SB), Y1, Y2
	VADDPD vexpdata<>+624(SB), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD vexpdata<>+656(SB), Y2, Y2
	VADDPD vexpdata<>+688(SB), Y1, Y3
	VMULPD Y1, Y3, Y3
	VADDPD vexpdata<>+720(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD vexpdata<>+752(SB), Y3, Y3
	VMULPD Y1, Y0, Y1
	VMULPD Y2, Y1, Y1
	VDIVPD Y3, Y1, Y1
	VADDPD Y1, Y0, Y1

	// x == 0: x itself, so −0 stays −0.
	VCMPPD    $0x00, Y15, Y0, Y2 // EQ_OQ
	VBLENDVPD Y2, Y0, Y1, Y1

	// |x| ≥ 0.625: 1 − 2/(e+1), ORed with x's sign.
	VANDPD    vexpdata<>+496(SB), Y0, Y4
	VANDPD    vexpdata<>+0(SB), Y0, Y5
	VMOVUPD   (DX)(AX*8), Y2
	VADDPD    vexpdata<>+416(SB), Y2, Y2
	VMOVUPD   vexpdata<>+448(SB), Y3
	VDIVPD    Y2, Y3, Y2
	VMOVUPD   vexpdata<>+416(SB), Y3
	VSUBPD    Y2, Y3, Y2
	VORPD     Y4, Y2, Y2
	VCMPPD    $0x1D, vexpdata<>+528(SB), Y5, Y3 // GE_OQ
	VBLENDVPD Y3, Y2, Y1, Y1

	// |x| > 0.5·MAXLOG: ±1.
	VORPD     vexpdata<>+416(SB), Y4, Y2
	VCMPPD    $0x1E, vexpdata<>+560(SB), Y5, Y3 // GT_OQ
	VBLENDVPD Y3, Y2, Y1, Y1

	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

tcond:
	CMPQ AX, CX
	JLT  tloop
	VZEROUPPER
	RET

// func geluArgPD(a, e *float64, src *float32, n int)
// GELU's tanh argument a[i] = c·(x + ((0.044715·x)·x)·x) with x =
// float64(src[i]), and e[i] = 2|a[i]|, the argument of tanh's exp, for every
// i below n rounded down to a multiple of four.
TEXT ·geluArgPD(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), DI
	MOVQ e+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX
	JMP  acond

aloop:
	VCVTPS2PD (SI)(AX*4), Y0
	VMULPD    vexpdata<>+784(SB), Y0, Y1
	VMULPD    Y0, Y1, Y1
	VMULPD    Y0, Y1, Y1
	VADDPD    Y1, Y0, Y1
	VMULPD    vexpdata<>+816(SB), Y1, Y1
	VMOVUPD   Y1, (DI)(AX*8)
	VANDPD    vexpdata<>+0(SB), Y1, Y1
	VMULPD    vexpdata<>+448(SB), Y1, Y1
	VMOVUPD   Y1, (DX)(AX*8)
	ADDQ      $4, AX

acond:
	CMPQ AX, CX
	JLT  aloop
	VZEROUPPER
	RET

// func geluOutPD(dst, src *float32, t *float64, n int)
// dst[i] = float32((0.5·x)·(1 + t[i])) with x = float64(src[i]), for every i
// below n rounded down to a multiple of four. dst may be src.
TEXT ·geluOutPD(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ t+16(FP), DX
	MOVQ n+24(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX
	JMP  ocond

oloop:
	VCVTPS2PD  (SI)(AX*4), Y0
	VMULPD     vexpdata<>+384(SB), Y0, Y0
	VMOVUPD    (DX)(AX*8), Y1
	VADDPD     vexpdata<>+416(SB), Y1, Y1
	VMULPD     Y1, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX

ocond:
	CMPQ AX, CX
	JLT  oloop
	VZEROUPPER
	RET
