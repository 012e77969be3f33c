//go:build !purego

#include "textflag.h"

// GEMM microkernels: AVX2, plus the AVX-512 tier's 8-row tiles. Every kernel
// updates one full register tile of C with A[rows, k0:k0+kc] · packed-B
// panels by load-accumulate-store: the tile is loaded from C, advanced kc
// steps, and stored back. Vector lanes are independent output columns and
// each step is a separate VMULPS then VADDPS (two roundings, never FMA), so
// every C element sees exactly the scalar `c += a*b` sequence in ascending
// k. All strides are in bytes. The kernels touch nothing outside their tile:
// the Go wrappers in gemm_amd64.go bounds-check the three operands and route
// partial tiles through a stack tile. R14, R15 and X15 are left alone (g,
// GOT and the ABIInternal zero register), only Z0–Z14 are used (VZEROUPPER
// does not clean Z16–Z31), and the upper YMM/ZMM halves are cleared before
// returning to SSE-encoded Go code.

// STEP multiplies the broadcast A element in Y10 by the two B vectors in
// Y8/Y9 and accumulates into the row's pair of accumulators.
#define STEP(acc0, acc1) \
	VMULPS Y8, Y10, Y11;    \
	VADDPS Y11, acc0, acc0; \
	VMULPS Y9, Y10, Y12;    \
	VADDPS Y12, acc1, acc1

// ROW16 multiplies the A element at amem, broadcast by the multiply itself,
// by the 16 B values in Z8 and accumulates into the row's accumulator.
#define ROW16(amem, acc, tmp) \
	VMULPS.BCST amem, Z8, tmp; \
	VADDPS      tmp, acc, acc

// func kern8x16(c *float32, ldc int, a *float32, lda int, p *float32, pstride int, kc int)
// 8 rows × 2 adjacent panels, AVX-512F: one ZMM accumulator per row, its
// low half panel q's eight columns and its high half panel q+1's, so a ZMM
// lane is the same output column as in kern4x16.
TEXT ·kern8x16(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ lda+24(FP), BX
	MOVQ p+32(FP), DX
	MOVQ pstride+40(FP), R8
	MOVQ kc+48(FP), CX
	LEAQ (SI)(SI*2), R9  // 3*ldc
	LEAQ (BX)(BX*2), R10 // 3*lda
	LEAQ (AX)(BX*4), R11 // A row 4
	LEAQ (DI)(SI*4), R12 // C row 4
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(SI*1), Z1
	VMOVUPS (DI)(SI*2), Z2
	VMOVUPS (DI)(R9*1), Z3
	VMOVUPS (R12), Z4
	VMOVUPS (R12)(SI*1), Z5
	VMOVUPS (R12)(SI*2), Z6
	VMOVUPS (R12)(R9*1), Z7

loop8x16:
	VMOVUPS      (DX), Y8
	VINSERTF64X4 $1, (DX)(R8*1), Z8, Z8
	ROW16((AX), Z0, Z9)
	ROW16((AX)(BX*1), Z1, Z10)
	ROW16((AX)(BX*2), Z2, Z11)
	ROW16((AX)(R10*1), Z3, Z12)
	ROW16((R11), Z4, Z13)
	ROW16((R11)(BX*1), Z5, Z14)
	ROW16((R11)(BX*2), Z6, Z9)
	ROW16((R11)(R10*1), Z7, Z10)
	ADDQ $4, AX
	ADDQ $4, R11
	ADDQ $32, DX
	DECQ CX
	JNZ  loop8x16

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(SI*1)
	VMOVUPS Z2, (DI)(SI*2)
	VMOVUPS Z3, (DI)(R9*1)
	VMOVUPS Z4, (R12)
	VMOVUPS Z5, (R12)(SI*1)
	VMOVUPS Z6, (R12)(SI*2)
	VMOVUPS Z7, (R12)(R9*1)
	VZEROUPPER
	RET

// ROW8 broadcasts the A element at amem into tmp, multiplies it by the
// eight B values in Y8 and accumulates into the row's accumulator.
#define ROW8(amem, acc, tmp) \
	VBROADCASTSS amem, tmp;  \
	VMULPS       Y8, tmp, tmp; \
	VADDPS       tmp, acc, acc

// func kern8x8(c *float32, ldc int, a *float32, lda int, p *float32, kc int)
// 8 rows × 1 panel, for a lone trailing panel at the AVX-512 tier: one YMM
// accumulator per row, so each B vector is loaded once for eight rows. It
// uses only AVX2 instructions.
TEXT ·kern8x8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ lda+24(FP), BX
	MOVQ p+32(FP), DX
	MOVQ kc+40(FP), CX
	LEAQ (SI)(SI*2), R9  // 3*ldc
	LEAQ (BX)(BX*2), R10 // 3*lda
	LEAQ (AX)(BX*4), R11 // A row 4
	LEAQ (DI)(SI*4), R12 // C row 4
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (DI)(SI*2), Y2
	VMOVUPS (DI)(R9*1), Y3
	VMOVUPS (R12), Y4
	VMOVUPS (R12)(SI*1), Y5
	VMOVUPS (R12)(SI*2), Y6
	VMOVUPS (R12)(R9*1), Y7

loop8x8:
	VMOVUPS (DX), Y8
	ROW8((AX), Y0, Y9)
	ROW8((AX)(BX*1), Y1, Y10)
	ROW8((AX)(BX*2), Y2, Y11)
	ROW8((AX)(R10*1), Y3, Y12)
	ROW8((R11), Y4, Y13)
	ROW8((R11)(BX*1), Y5, Y14)
	ROW8((R11)(BX*2), Y6, Y9)
	ROW8((R11)(R10*1), Y7, Y10)
	ADDQ $4, AX
	ADDQ $4, R11
	ADDQ $32, DX
	DECQ CX
	JNZ  loop8x8

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (DI)(SI*2)
	VMOVUPS Y3, (DI)(R9*1)
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, (R12)(SI*1)
	VMOVUPS Y6, (R12)(SI*2)
	VMOVUPS Y7, (R12)(R9*1)
	VZEROUPPER
	RET

// func kern4x16(c *float32, ldc int, a *float32, lda int, p *float32, pstride int, kc int)
// 4 rows × 2 adjacent panels: 8 independent accumulators.
TEXT ·kern4x16(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ lda+24(FP), BX
	MOVQ p+32(FP), DX
	MOVQ pstride+40(FP), R8
	MOVQ kc+48(FP), CX
	LEAQ (SI)(SI*2), R9  // 3*ldc
	LEAQ (BX)(BX*2), R10 // 3*lda
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(SI*1), Y2
	VMOVUPS 32(DI)(SI*1), Y3
	VMOVUPS (DI)(SI*2), Y4
	VMOVUPS 32(DI)(SI*2), Y5
	VMOVUPS (DI)(R9*1), Y6
	VMOVUPS 32(DI)(R9*1), Y7

loop4x16:
	VMOVUPS (DX), Y8
	VMOVUPS (DX)(R8*1), Y9
	VBROADCASTSS (AX), Y10
	STEP(Y0, Y1)
	VBROADCASTSS (AX)(BX*1), Y10
	STEP(Y2, Y3)
	VBROADCASTSS (AX)(BX*2), Y10
	STEP(Y4, Y5)
	VBROADCASTSS (AX)(R10*1), Y10
	STEP(Y6, Y7)
	ADDQ $4, AX
	ADDQ $32, DX
	DECQ CX
	JNZ  loop4x16

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(SI*1)
	VMOVUPS Y3, 32(DI)(SI*1)
	VMOVUPS Y4, (DI)(SI*2)
	VMOVUPS Y5, 32(DI)(SI*2)
	VMOVUPS Y6, (DI)(R9*1)
	VMOVUPS Y7, 32(DI)(R9*1)
	VZEROUPPER
	RET

// func kern4x8(c *float32, ldc int, a *float32, lda int, p *float32, kc int)
// 4 rows × 1 panel, for a lone trailing panel's rows below the AVX-512 tier
// and its last 4-row tile at it.
TEXT ·kern4x8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ lda+24(FP), BX
	MOVQ p+32(FP), DX
	MOVQ kc+40(FP), CX
	LEAQ (SI)(SI*2), R9  // 3*ldc
	LEAQ (BX)(BX*2), R10 // 3*lda
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(SI*1), Y2
	VMOVUPS (DI)(SI*2), Y4
	VMOVUPS (DI)(R9*1), Y6

loop4x8:
	VMOVUPS (DX), Y8
	VBROADCASTSS (AX), Y10
	VMULPS  Y8, Y10, Y11
	VADDPS  Y11, Y0, Y0
	VBROADCASTSS (AX)(BX*1), Y10
	VMULPS  Y8, Y10, Y12
	VADDPS  Y12, Y2, Y2
	VBROADCASTSS (AX)(BX*2), Y10
	VMULPS  Y8, Y10, Y13
	VADDPS  Y13, Y4, Y4
	VBROADCASTSS (AX)(R10*1), Y10
	VMULPS  Y8, Y10, Y14
	VADDPS  Y14, Y6, Y6
	ADDQ $4, AX
	ADDQ $32, DX
	DECQ CX
	JNZ  loop4x8

	VMOVUPS Y0, (DI)
	VMOVUPS Y2, (DI)(SI*1)
	VMOVUPS Y4, (DI)(SI*2)
	VMOVUPS Y6, (DI)(R9*1)
	VZEROUPPER
	RET

// func kern1x32(c *float32, a *float32, p *float32, pstride int, kc int)
// 1 row × 4 adjacent panels: the GEMV kernel of the M=1 RNN/dense steps.
TEXT ·kern1x32(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ p+16(FP), DX
	MOVQ pstride+24(FP), R8
	MOVQ kc+32(FP), CX
	LEAQ (R8)(R8*2), R9 // 3*pstride
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3

loop1x32:
	VBROADCASTSS (AX), Y10
	VMULPS  (DX), Y10, Y4
	VADDPS  Y4, Y0, Y0
	VMULPS  (DX)(R8*1), Y10, Y5
	VADDPS  Y5, Y1, Y1
	VMULPS  (DX)(R8*2), Y10, Y6
	VADDPS  Y6, Y2, Y2
	VMULPS  (DX)(R9*1), Y10, Y7
	VADDPS  Y7, Y3, Y3
	ADDQ $4, AX
	ADDQ $32, DX
	DECQ CX
	JNZ  loop1x32

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func kern1x8(c *float32, a *float32, p *float32, kc int)
// 1 row × 1 panel, for the panels left over after the 1×32 groups.
TEXT ·kern1x8(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ p+16(FP), DX
	MOVQ kc+24(FP), CX
	VMOVUPS (DI), Y0

loop1x8:
	VBROADCASTSS (AX), Y10
	VMULPS  (DX), Y10, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ $4, AX
	ADDQ $32, DX
	DECQ CX
	JNZ  loop1x8

	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// VMAXPS/VMAXSS src2, src1, dst computes src1 > src2 ? src1 : src2 per lane
// — a NaN in either operand, or two zeros of any sign, yield src2 — which is
// exactly Go's `if x > y { x } else { y }`, so the two kernels below are
// bit-identical to their portable loops (loops.go) with no fix-up. Both take
// any n ≥ 1: eight lanes at a time, then scalar for the tail.

// func maxps(dst, a, b *float32, n int)
// dst[i] = a[i] > b[i] ? a[i] : b[i]; dst may be a or b.
TEXT ·maxps(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	SHLQ $2, BX // bytes in whole vectors
	SHLQ $2, CX // bytes in all
	JMP  max8cond

max8:
	VMOVUPS (SI)(AX*1), Y0
	VMAXPS  (DX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX

max8cond:
	CMPQ AX, BX
	JLT  max8
	JMP  max1cond

max1:
	VMOVSS (SI)(AX*1), X0
	VMAXSS (DX)(AX*1), X0, X0
	VMOVSS X0, (DI)(AX*1)
	ADDQ   $4, AX

max1cond:
	CMPQ AX, CX
	JLT  max1
	VZEROUPPER
	RET

// func maxps1(dst, a *float32, s float32, n int)
// dst[i] = a[i] > s ? a[i] : s; dst may be a. ReLU is s = +0 (NaN and −0
// give +0).
TEXT ·maxps1(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	VBROADCASTSS s+16(FP), Y1
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	SHLQ         $2, BX
	SHLQ         $2, CX
	JMP          maxs8cond

maxs8:
	VMOVUPS (SI)(AX*1), Y0
	VMAXPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX

maxs8cond:
	CMPQ AX, BX
	JLT  maxs8
	JMP  maxs1cond

maxs1:
	VMOVSS (SI)(AX*1), X0
	VMAXSS X1, X0, X0
	VMOVSS X0, (DI)(AX*1)
	ADDQ   $4, AX

maxs1cond:
	CMPQ AX, CX
	JLT  maxs1
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
