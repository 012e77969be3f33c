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
GLOBL vexpdata<>(SB), RODATA|NOPTR, $496

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
