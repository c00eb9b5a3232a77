#include "textflag.h"

// Lane-wise ports of math.Exp and math.Tanh, four float64 lanes per YMM
// register. Every lane performs the scalar code's operations in its order
// and with its roundings: math.Exp's amd64 assembly on its FMA path (taken
// when the processor has AVX and FMA), and math.tanh's Go source, which the
// compiler does not fuse.

#define CONST4(sym, v) DATA sym<>+0(SB)/8, v; DATA sym<>+8(SB)/8, v; DATA sym<>+16(SB)/8, v; DATA sym<>+24(SB)/8, v; GLOBL sym<>(SB), RODATA|NOPTR, $32

// math.Exp's constants ($GOROOT/src/math/exp_amd64.s).
CONST4(expLog2e, $1.4426950408889634073599246810018920)
CONST4(expLn2u, $0.69314718055966295651160180568695068359375)
CONST4(expLn2l, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(expSixteenth, $0.0625)
CONST4(expC8, $2.4801587301587301587e-5)
CONST4(expC7, $1.9841269841269841270e-4)
CONST4(expC6, $1.3888888888888888889e-3)
CONST4(expC5, $8.3333333333333333333e-3)
CONST4(expC4, $4.1666666666666666667e-2)
CONST4(expC3, $1.6666666666666666667e-1)
CONST4(expBias, $1023)
CONST4(half, $0.5)
CONST4(one, $1.0)
CONST4(two, $2.0)

// The argument range on which math.Exp takes none of its overflow,
// denormal or non-finite branches.
CONST4(expLo, $-708.0)
CONST4(expHi, $709.0)

// math.tanh's constants ($GOROOT/src/math/tanh.go) and the GELU's.
CONST4(tanhP0, $-9.64399179425052238628e-1)
CONST4(tanhP1, $-9.92877231001918586564e1)
CONST4(tanhP2, $-1.61468768441708447952e3)
CONST4(tanhQ0, $1.12811678491632931402e2)
CONST4(tanhQ1, $2.23548839060100448583e3)
CONST4(tanhQ2, $4.84406305325125486048e3)
CONST4(tanhRational, $0.625)
CONST4(tanhSaturate, $44.014845965556527147994) // 0.5*MAXLOG
CONST4(absMask, $0x7fffffffffffffff)
CONST4(signMask, $0x8000000000000000)
CONST4(geluC, $0.7978845608028654) // sqrt(2/pi)
CONST4(geluK, $0.044715)

// EXP4 sets Y0 = math.Exp(Y0) lane-wise, for lanes in [-708, 709]; other
// lanes get unspecified values. It clobbers Y1 and Y2. The steps are those
// of archExp's avxfma label, then its ldexp by 2**k.
#define EXP4 \
	VMULPD       expLog2e<>(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD expLn2u<>(SB), Y1, Y0; \
	VFNMADD231PD expLn2l<>(SB), Y1, Y0; \
	VMULPD       expSixteenth<>(SB), Y0, Y0; \
	VMOVUPD      expC8<>(SB), Y1; \
	VFMADD213PD  expC7<>(SB), Y0, Y1; \
	VFMADD213PD  expC6<>(SB), Y0, Y1; \
	VFMADD213PD  expC5<>(SB), Y0, Y1; \
	VFMADD213PD  expC4<>(SB), Y0, Y1; \
	VFMADD213PD  expC3<>(SB), Y0, Y1; \
	VFMADD213PD  half<>(SB), Y0, Y1; \
	VFMADD213PD  one<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y1; \
	VFMADD213PD  one<>(SB), Y1, Y0; \
	VPMOVSXDQ    X2, Y1; \
	VPADDQ       expBias<>(SB), Y1, Y1; \
	VPSLLQ       $52, Y1, Y1; \
	VMULPD       Y1, Y0, Y0

// func expAVX2(x *float64, n int) (bad uint64)
TEXT ·expAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), R8
	XORQ BX, BX
	XORQ CX, CX

loopExp:
	VMOVUPD (DI), Y0
	// Lanes below -708, above 709 or NaN: x NGE lo or x NLE hi.
	VCMPPD    $0x09, expLo<>(SB), Y0, Y3
	VCMPPD    $0x06, expHi<>(SB), Y0, Y4
	VORPD     Y4, Y3, Y3
	VMOVMSKPD Y3, AX
	SHLQ      CX, AX
	ORQ       AX, BX
	VMOVUPD   Y0, Y5
	EXP4
	VBLENDVPD Y3, Y5, Y0, Y0 // flagged lanes keep their argument
	VMOVUPD   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $4, CX
	CMPQ      CX, R8
	JB        loopExp
	VZEROUPPER
	MOVQ BX, bad+16(FP)
	RET

// func expSumAVX2(x *float32, n int, max float32, sum *float64) (done int)
//
// softmaxRow's exponential pass, four lanes at a time: each lane widens
// x[j]-max to float64, takes EXP4 and stores the result narrowed to
// float32 back into x[j], and the four results are then added to *sum one
// at a time in ascending j — the scalar loop's additions, in its order. It
// stops before the first group with a lane outside [-708, 709] or NaN.
TEXT ·expSumAVX2(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), R8
	VBROADCASTSS max+16(FP), X8
	MOVQ         sum+24(FP), R9
	VMOVSD       (R9), X7
	XORQ         CX, CX

loopExpSum:
	CMPQ      CX, R8
	JAE       doneExpSum
	VMOVUPS   (DI)(CX*4), X0
	VSUBPS    X8, X0, X0
	VCVTPS2PD X0, Y0
	VCMPPD    $0x09, expLo<>(SB), Y0, Y3
	VCMPPD    $0x06, expHi<>(SB), Y0, Y4
	VORPD     Y4, Y3, Y3
	VMOVMSKPD Y3, AX
	TESTQ     AX, AX
	JNZ       doneExpSum
	EXP4
	VCVTPD2PSY   Y0, X1
	VMOVUPS      X1, (DI)(CX*4)
	VADDSD       X0, X7, X7
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X7, X7
	VEXTRACTF128 $1, Y0, X2
	VADDSD       X2, X7, X7
	VPERMILPD    $1, X2, X1
	VADDSD       X1, X7, X7
	ADDQ         $4, CX
	JMP          loopExpSum

doneExpSum:
	VMOVSD X7, (R9)
	MOVQ   CX, done+32(FP)
	VZEROUPPER
	RET

// func geluAVX2(x *float32, n int)
TEXT ·geluAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	SHLQ $2, CX
	ADDQ SI, CX
	VXORPD Y11, Y11, Y11

loopGELU:
	VCVTPS2PD (SI), Y3
	// u = c*(x + ((k*x)*x)*x)
	VMULPD geluK<>(SB), Y3, Y4
	VMULPD Y3, Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD Y4, Y3, Y4
	VMULPD geluC<>(SB), Y4, Y4
	VANDPD absMask<>(SB), Y4, Y5 // z = |u|
	VANDPD signMask<>(SB), Y4, Y6

	// z >= 0.625: 1 - 2/(exp(2z)+1), negated for negative u.
	VADDPD  Y5, Y5, Y0
	EXP4
	VADDPD  one<>(SB), Y0, Y0
	VMOVUPD two<>(SB), Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD one<>(SB), Y1
	VSUBPD  Y0, Y1, Y0
	VXORPD  Y6, Y0, Y0

	// Otherwise u + ((u*s)*P(s))/Q(s), s = u*u.
	VMULPD Y4, Y4, Y7
	VMULPD tanhP0<>(SB), Y7, Y8
	VADDPD tanhP1<>(SB), Y8, Y8
	VMULPD Y7, Y8, Y8
	VADDPD tanhP2<>(SB), Y8, Y8
	VADDPD tanhQ0<>(SB), Y7, Y9
	VMULPD Y7, Y9, Y9
	VADDPD tanhQ1<>(SB), Y9, Y9
	VMULPD Y7, Y9, Y9
	VADDPD tanhQ2<>(SB), Y9, Y9
	VMULPD Y7, Y4, Y10
	VMULPD Y8, Y10, Y10
	VDIVPD Y9, Y10, Y10
	VADDPD Y10, Y4, Y10

	// Pick each lane's branch: u == 0 keeps u (and its sign), then
	// z >= 0.625 the exponential form, then z > 0.5*MAXLOG copysign(1, u).
	// NaN compares false everywhere and stays on the rational form.
	VCMPPD    $0x00, Y11, Y4, Y12
	VBLENDVPD Y12, Y4, Y10, Y10
	VCMPPD    $0x1D, tanhRational<>(SB), Y5, Y12
	VBLENDVPD Y12, Y0, Y10, Y10
	VCMPPD    $0x1E, tanhSaturate<>(SB), Y5, Y12
	VORPD     one<>(SB), Y6, Y13
	VBLENDVPD Y12, Y13, Y10, Y10

	// (0.5*x) * (1 + tanh(u))
	VADDPD     one<>(SB), Y10, Y10
	VMULPD     half<>(SB), Y3, Y3
	VMULPD     Y10, Y3, Y3
	VCVTPD2PSY Y3, X3
	VMOVUPS    X3, (SI)
	ADDQ       $16, SI
	CMPQ       SI, CX
	JB         loopGELU
	VZEROUPPER
	RET

// The softmax's element-wise passes: the scale with the running maximum,
// and the final multiply. Each product is the scalar loop's one rounded
// multiply, so they need only AVX.

// func scaleMaxAVX2(x *float32, n int, scale float32) (max float32)
TEXT ·scaleMaxAVX2(SB), NOSPLIT, $0-28
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	SHLQ         $2, CX
	ADDQ         DI, CX
	VBROADCASTSS scale+16(FP), Y8
	VMOVUPS      (DI), Y1
	VMULPS       Y8, Y1, Y1
	VMOVUPS      Y1, (DI) // Y1: the running maximum
	ADDQ         $32, DI

loopScaleMax:
	CMPQ    DI, CX
	JAE     doneScaleMax
	VMOVUPS (DI), Y0
	VMULPS  Y8, Y0, Y0
	VMOVUPS Y0, (DI)
	VMAXPS  Y0, Y1, Y1
	ADDQ    $32, DI
	JMP     loopScaleMax

doneScaleMax:
	VEXTRACTF128 $1, Y1, X3
	VMAXPS       X3, X1, X1
	VPERMILPS    $0x4E, X1, X3
	VMAXPS       X3, X1, X1
	VPERMILPS    $0xB1, X1, X3
	VMAXPS       X3, X1, X1
	VMOVSS       X1, max+24(FP)
	VZEROUPPER
	RET

// func mulAVX2(x *float32, n int, s float32)
TEXT ·mulAVX2(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	SHLQ         $2, CX
	ADDQ         DI, CX
	VBROADCASTSS s+16(FP), Y8

loopMul:
	VMOVUPS (DI), Y0
	VMULPS  Y8, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	CMPQ    DI, CX
	JB      loopMul
	VZEROUPPER
	RET
