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
