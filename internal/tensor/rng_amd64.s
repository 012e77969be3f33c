//go:build !purego

#include "textflag.h"

// fillPS is RNG.fill's loop (rng.go) eight terms at a time. Each chunk
// advances the recurrence y[n] = y[n-607] + y[n-273] with one VPADDQ of the
// feed and tap runs, then replays the scalar code's conversions lane by
// lane: VPANDQ clears bit 63 (Int63), VCVTQQ2PD is CVTSQ2SD, VMULPD by the
// exact 2⁻⁶³ is MULSD, VCVTPD2PS is CVTSD2SS — every rounding under MXCSR,
// as in the scalar code — and VADDPS f+f, VSUBPS 1, VMULPS bound are the
// ADDSS / SUBSS / MULSS of (f*2 - 1) * bound. A chunk reads taps 273 terms
// or more behind the terms it writes, so it never reads its own output.
// Before storing a chunk the kernel compares its floats with 1 (VCMPPS): a
// chunk holding a draw that rounds to 1, which Float32 resamples, is left
// unstored and the kernel returns, so the scalar loop runs that chunk.

DATA rngdata<>+0(SB)/8, $0x7fffffffffffffff // Int63 mask
DATA rngdata<>+8(SB)/8, $0x3c00000000000000 // 2⁻⁶³
DATA rngdata<>+16(SB)/4, $0x3f800000        // float32 1
GLOBL rngdata<>(SB), RODATA|NOPTR, $20

// func fillPS(dst *float32, feed, tap *uint64, chunks int, bound float32) (done int)
// Runs up to chunks chunks and returns the terms it stored, 8 per chunk.
TEXT ·fillPS(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         feed+8(FP), SI
	MOVQ         tap+16(FP), DX
	MOVQ         chunks+24(FP), CX
	VBROADCASTSS bound+32(FP), Y3
	VPBROADCASTQ rngdata<>+0(SB), Z4
	VBROADCASTSD rngdata<>+8(SB), Z5
	VBROADCASTSS rngdata<>+16(SB), Y6
	XORQ         AX, AX

loop:
	CMPQ      AX, CX
	JGE       done
	VMOVDQU64 (SI), Z0
	VPADDQ    (DX), Z0, Z0
	VPANDQ    Z4, Z0, Z1
	VCVTQQ2PD Z1, Z1
	VMULPD    Z5, Z1, Z1
	VCVTPD2PS Z1, Y1
	VCMPPS    $0, Y6, Y1, Y2 // EQ_OQ: lanes equal to 1
	VPTEST    Y2, Y2
	JNZ       done
	VADDPS    Y1, Y1, Y1
	VSUBPS    Y6, Y1, Y1
	VMULPS    Y3, Y1, Y1
	VMOVDQU64 Z0, (SI)
	VMOVUPS   Y1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $32, DI
	INCQ      AX
	JMP       loop

done:
	SHLQ       $3, AX
	MOVQ       AX, done+40(FP)
	VZEROUPPER
	RET
