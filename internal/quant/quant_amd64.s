#include "textflag.h"

// Lane i of a dword broadcast from four packed bytes, shifted right by 4i,
// holds code i in its low nibble: the low nibble of each byte comes first,
// as the packer writes it.
DATA nibbleShifts<>+0(SB)/4, $0
DATA nibbleShifts<>+4(SB)/4, $4
DATA nibbleShifts<>+8(SB)/4, $8
DATA nibbleShifts<>+12(SB)/4, $12
DATA nibbleShifts<>+16(SB)/4, $16
DATA nibbleShifts<>+20(SB)/4, $20
DATA nibbleShifts<>+24(SB)/4, $24
DATA nibbleShifts<>+28(SB)/4, $28
GLOBL nibbleShifts<>(SB), RODATA|NOPTR, $32

DATA nibbleMask<>+0(SB)/4, $0xf
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $4

// func dequant4AVX2(dst *float32, src *byte, table *[16]float32, n int)
//
// Per eight codes: broadcast four bytes, shift each lane to its nibble and
// mask it, look the code up in both table halves with VPERMPS (which reads
// the low three bits), and pick the upper half where bit 3 is set.
TEXT ·dequant4AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ table+16(FP), AX
	MOVQ n+24(FP), CX
	VMOVUPS 0(AX), Y6
	VMOVUPS 32(AX), Y7
	VMOVDQU nibbleShifts<>(SB), Y8
	VPBROADCASTD nibbleMask<>(SB), Y9

loop:
	VPBROADCASTD (SI), Y0
	VPSRLVD   Y8, Y0, Y0
	VPAND     Y9, Y0, Y0
	VPERMPS   Y6, Y0, Y1
	VPERMPS   Y7, Y0, Y2
	VPSLLD    $28, Y0, Y3
	VBLENDVPS Y3, Y2, Y1, Y1
	VMOVUPS   Y1, (DI)
	ADDQ $4, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET
