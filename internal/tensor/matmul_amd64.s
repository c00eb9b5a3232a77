#include "textflag.h"

// No kernel here uses FMA: every lane rounds the product, then rounds the
// sum, exactly as the Go loops do, so the results are bit-identical.

// func transpose8AVX2(dst *float32, dstStride int, src *float32, srcStride, rows int)
//
// Transposes the rows×8 block at src (rows a positive multiple of 8, rows
// srcStride elements apart) into the 8×rows block at dst (rows dstStride
// elements apart), one 8×8 tile per pass: each half of a tile's rows
// becomes one 128-bit lane, then two rounds of in-lane shuffles.
TEXT ·transpose8AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), DX
	SHLQ $2, DX
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), BX
	SHLQ $2, BX
	MOVQ rows+32(FP), CX
	SHRQ $3, CX
	LEAQ (BX)(BX*2), R8 // 3 source rows
	LEAQ (DX)(DX*2), R9 // 3 destination rows

tile:
	LEAQ (SI)(BX*4), R10 // source row 4
	VMOVUPS     (SI), X0
	VINSERTF128 $1, (R10), Y0, Y0
	VMOVUPS     (SI)(BX*1), X1
	VINSERTF128 $1, (R10)(BX*1), Y1, Y1
	VMOVUPS     (SI)(BX*2), X2
	VINSERTF128 $1, (R10)(BX*2), Y2, Y2
	VMOVUPS     (SI)(R8*1), X3
	VINSERTF128 $1, (R10)(R8*1), Y3, Y3
	VMOVUPS     16(SI), X4
	VINSERTF128 $1, 16(R10), Y4, Y4
	VMOVUPS     16(SI)(BX*1), X5
	VINSERTF128 $1, 16(R10)(BX*1), Y5, Y5
	VMOVUPS     16(SI)(BX*2), X6
	VINSERTF128 $1, 16(R10)(BX*2), Y6, Y6
	VMOVUPS     16(SI)(R8*1), X7
	VINSERTF128 $1, 16(R10)(R8*1), Y7, Y7

	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VSHUFPS   $0x44, Y10, Y8, Y0
	VSHUFPS   $0xEE, Y10, Y8, Y1
	VSHUFPS   $0x44, Y11, Y9, Y2
	VSHUFPS   $0xEE, Y11, Y9, Y3
	VUNPCKLPS Y5, Y4, Y8
	VUNPCKHPS Y5, Y4, Y9
	VUNPCKLPS Y7, Y6, Y10
	VUNPCKHPS Y7, Y6, Y11
	VSHUFPS   $0x44, Y10, Y8, Y4
	VSHUFPS   $0xEE, Y10, Y8, Y5
	VSHUFPS   $0x44, Y11, Y9, Y6
	VSHUFPS   $0xEE, Y11, Y9, Y7

	LEAQ    (DI)(DX*4), R11 // destination row 4
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(DX*1)
	VMOVUPS Y2, (DI)(DX*2)
	VMOVUPS Y3, (DI)(R9*1)
	VMOVUPS Y4, (R11)
	VMOVUPS Y5, (R11)(DX*1)
	VMOVUPS Y6, (R11)(DX*2)
	VMOVUPS Y7, (R11)(R9*1)

	LEAQ (SI)(BX*8), SI
	ADDQ $32, DI
	DECQ CX
	JNZ  tile
	VZEROUPPER
	RET

// func tile4x16AVX2(c *float32, cStride int, a *float32, aStride int, b *float32, bStride, k int)
//
// Four rows of c[r][0:16] = Σ_p a[r][p]·b[p][0:16] over p in [0, k),
// k ≥ 1: the four rows' sixteen sums stay in Y0–Y7 across all of k, each
// starting at +0 and taking its products in ascending p, the product (A's
// element first) and the sum (accumulator first) each rounded — mulRowGo's
// operations and operand order, lane by lane.
TEXT ·tile4x16AVX2(SB), NOSPLIT, $0-56
	MOVQ a+16(FP), SI
	MOVQ aStride+24(FP), BX
	SHLQ $2, BX
	LEAQ (SI)(BX*1), R8  // row 1 of A
	LEAQ (SI)(BX*2), R9  // row 2
	LEAQ (R8)(BX*2), R10 // row 3
	MOVQ b+32(FP), DX
	MOVQ bStride+40(FP), R11
	SHLQ $2, R11
	MOVQ k+48(FP), CX
	SHLQ $2, CX
	XORQ AX, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

k4:
	VMOVUPS      (DX), Y8
	VMOVUPS      32(DX), Y9
	VBROADCASTSS (SI)(AX*1), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y1, Y1
	VBROADCASTSS (R8)(AX*1), Y13
	VMULPS       Y8, Y13, Y14
	VADDPS       Y14, Y2, Y2
	VMULPS       Y9, Y13, Y15
	VADDPS       Y15, Y3, Y3
	VBROADCASTSS (R9)(AX*1), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y5, Y5
	VBROADCASTSS (R10)(AX*1), Y13
	VMULPS       Y8, Y13, Y14
	VADDPS       Y14, Y6, Y6
	VMULPS       Y9, Y13, Y15
	VADDPS       Y15, Y7, Y7
	ADDQ         R11, DX
	ADDQ         $4, AX
	CMPQ         AX, CX
	JB           k4

	MOVQ    c+0(FP), DI
	MOVQ    cStride+8(FP), BX
	SHLQ    $2, BX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func row1x64AVX2(c, a, b *float32, bStride, k int)
//
// tile4x16AVX2's operations for one row of 64 columns: c[0:64] =
// Σ_p a[p]·b[p][0:64], p in [0, k), the eight sums in Y0–Y7 across all of
// k. Eight independent sums keep the adds' latency hidden, which the
// two-sum row1x16AVX2 cannot.
TEXT ·row1x64AVX2(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bStride+24(FP), R11
	SHLQ $2, R11
	MOVQ k+32(FP), CX
	SHLQ $2, CX
	XORQ AX, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

k64:
	VBROADCASTSS (SI)(AX*1), Y8
	VMULPS       (DX), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(DX), Y8, Y10
	VADDPS       Y10, Y1, Y1
	VMULPS       64(DX), Y8, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       96(DX), Y8, Y12
	VADDPS       Y12, Y3, Y3
	VMULPS       128(DX), Y8, Y13
	VADDPS       Y13, Y4, Y4
	VMULPS       160(DX), Y8, Y14
	VADDPS       Y14, Y5, Y5
	VMULPS       192(DX), Y8, Y15
	VADDPS       Y15, Y6, Y6
	VMULPS       224(DX), Y8, Y9
	VADDPS       Y9, Y7, Y7
	ADDQ         R11, DX
	ADDQ         $4, AX
	CMPQ         AX, CX
	JB           k64

	MOVQ    c+0(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

// func row1x16AVX2(c, a, b *float32, bStride, k int)
//
// tile4x16AVX2 for one row: c[0:16] = Σ_p a[p]·b[p][0:16], p in [0, k).
TEXT ·row1x16AVX2(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ bStride+24(FP), R11
	SHLQ $2, R11
	MOVQ k+32(FP), CX
	SHLQ $2, CX
	XORQ AX, AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

k16:
	VBROADCASTSS (SI)(AX*1), Y10
	VMULPS       (DX), Y10, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       32(DX), Y10, Y12
	VADDPS       Y12, Y1, Y1
	ADDQ         R11, DX
	ADDQ         $4, AX
	CMPQ         AX, CX
	JB           k16

	MOVQ    c+0(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET
