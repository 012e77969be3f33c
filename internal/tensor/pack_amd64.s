//go:build !purego

#include "textflag.h"

// The im2col row pack behind packRows (gemm_amd64.go; packRowsGo is the
// reference). One call writes the outer × inner rectangle of patch-row
// slots at d + o·dOuter + i·dInner: lane s of a slot is the source float at
// src − lead + o·sOuter + i·sInner + s·stride where the load mask lmask (16
// int32 over the source floats from lane 0) is set and 0 where it is clear,
// and only the lanes set in the store mask smask (8 int32) are written.
// src is the first active element; lead steps back from it to lane 0, so
// on a left fringe the lane-0 address lies before src, possibly before the
// allocation, but an element under a clear mask bit is never accessed and
// cannot fault. Only Y0–Y5 are used, R14 and R15 are left alone, and the
// upper YMM halves are cleared before returning.

// func packRowsAVX(d *float32, dOuter, dInner int, src *float32, sOuter, sInner, outer, inner, lead int, lmask, smask *int32, mode int)
// Strides and lead are in bytes; outer, inner ≥ 1. The modes are packRows'
// constants, one loop each over a channel's inner slots: packCopy moves a
// full stride-1 run with plain loads and stores, packZero stores zeros and
// reads nothing, packStride1 is one masked load, packStride2 masked-loads
// the even floats of the 16 its lanes span, VSHUFPS $0x88 packs each
// 128-bit half's evens and VPERMPD $0xD8 puts the quadwords in lane order.
TEXT ·packRowsAVX(SB), NOSPLIT, $0-96
	MOVQ    d+0(FP), DI
	MOVQ    dOuter+8(FP), DX
	MOVQ    dInner+16(FP), R8
	MOVQ    src+24(FP), SI
	MOVQ    sOuter+32(FP), R9
	MOVQ    sInner+40(FP), R10
	MOVQ    outer+48(FP), R11
	MOVQ    inner+56(FP), R12
	SUBQ    lead+64(FP), SI
	MOVQ    lmask+72(FP), AX
	VMOVDQU (AX), Y1
	VMOVDQU 32(AX), Y2
	MOVQ    smask+80(FP), AX
	VMOVDQU (AX), Y3
	MOVQ    mode+88(FP), R13
	VXORPS  Y5, Y5, Y5

packOuter:
	MOVQ DI, AX
	MOVQ SI, BX
	MOVQ R12, CX
	CMPQ R13, $1
	JLT  packCopy
	JEQ  packZero
	CMPQ R13, $3
	JLT  packStride1

packStride2:
	VMASKMOVPS (BX), Y1, Y0
	VMASKMOVPS 32(BX), Y2, Y4
	VSHUFPS    $0x88, Y4, Y0, Y0
	VPERMPD    $0xD8, Y0, Y0
	VMASKMOVPS Y0, Y3, (AX)
	ADDQ       R8, AX
	ADDQ       R10, BX
	DECQ       CX
	JNZ        packStride2
	JMP        packNext

packStride1:
	VMASKMOVPS (BX), Y1, Y0
	VMASKMOVPS Y0, Y3, (AX)
	ADDQ       R8, AX
	ADDQ       R10, BX
	DECQ       CX
	JNZ        packStride1
	JMP        packNext

packZero:
	VMASKMOVPS Y5, Y3, (AX)
	ADDQ       R8, AX
	DECQ       CX
	JNZ        packZero
	JMP        packNext

packCopy:
	VMOVUPS (BX), Y0
	VMOVUPS Y0, (AX)
	ADDQ    R8, AX
	ADDQ    R10, BX
	DECQ    CX
	JNZ     packCopy

packNext:
	ADDQ R9, SI
	ADDQ DX, DI
	DECQ R11
	JNZ  packOuter
	VZEROUPPER
	RET

// func packTransAVX(dst, src *float32, ld, blocks int)
// The full-panel body of packBTransposed (gemm_amd64.go; packBTransposedGo
// is the reference): dst[c*8 + r] = src[r*ld + c] for the eight rows r of a
// panel and the blocks·8 columns c. Each block loads an 8×8 tile with one
// row per register, transposes it in registers — VUNPCKLPS / VUNPCKHPS
// interleave row pairs, VSHUFPS gathers four rows' column pairs in each
// 128-bit half, VPERM2F128 joins the halves — and stores eight contiguous
// packed rows. ld is the source row stride in bytes; blocks ≥ 1.
TEXT ·packTransAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), R8
	MOVQ blocks+24(FP), CX
	LEAQ (R8)(R8*2), R9
	LEAQ (SI)(R8*4), R10

transBlock:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R9*1), Y3
	VMOVUPS (R10), Y4
	VMOVUPS (R10)(R8*1), Y5
	VMOVUPS (R10)(R8*2), Y6
	VMOVUPS (R10)(R9*1), Y7

	// Row pairs: Y8 = r0c0 r1c0 r0c1 r1c1 | r0c4 r1c4 r0c5 r1c5, and so on.
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	// Four rows of one column per half: Y0 = r0..r3 c0 | r0..r3 c4.
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	// Whole columns: low halves give c0..c3, high halves c4..c7.
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	VMOVUPS Y12, 128(DI)
	VMOVUPS Y13, 160(DI)
	VMOVUPS Y14, 192(DI)
	VMOVUPS Y15, 224(DI)
	ADDQ    $32, SI
	ADDQ    $32, R10
	ADDQ    $256, DI
	DECQ    CX
	JNZ     transBlock
	VZEROUPPER
	RET
