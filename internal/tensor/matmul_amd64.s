#include "textflag.h"

// Neither kernel uses FMA: every lane rounds the product, then rounds the
// sum, exactly as the Go loops do, so the results are bit-identical.

// func accumRow8AVX2(c *float32, a *[8]float32, b *float32, stride, n int)
TEXT ·accumRow8AVX2(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), AX
	VBROADCASTSS 0(AX), Y8
	VBROADCASTSS 4(AX), Y9
	VBROADCASTSS 8(AX), Y10
	VBROADCASTSS 12(AX), Y11
	VBROADCASTSS 16(AX), Y12
	VBROADCASTSS 20(AX), Y13
	VBROADCASTSS 24(AX), Y14
	VBROADCASTSS 28(AX), Y15
	MOVQ c+0(FP), DI
	MOVQ b+16(FP), SI
	MOVQ stride+24(FP), DX
	SHLQ $2, DX
	LEAQ (SI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	LEAQ (R13)(DX*1), BX
	MOVQ n+32(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

loop8:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS  (SI)(AX*1), Y8, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R8)(AX*1), Y9, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R9)(AX*1), Y10, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R10)(AX*1), Y11, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R11)(AX*1), Y12, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R12)(AX*1), Y13, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (R13)(AX*1), Y14, Y1
	VADDPS  Y1, Y0, Y0
	VMULPS  (BX)(AX*1), Y15, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB   loop8
	VZEROUPPER
	RET

// func accumOneAVX2(c, b *float32, a float32, n int)
TEXT ·accumOneAVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSS a+16(FP), Y8
	MOVQ n+24(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

loop1:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS  (SI)(AX*1), Y8, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JB   loop1
	VZEROUPPER
	RET
