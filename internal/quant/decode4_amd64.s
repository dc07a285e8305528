#include "textflag.h"

// DECODE16 decodes the eight packed bytes at (SI) into sixteen floats at
// (DI) and advances both, in baseline SSE2. The nibbles are split (PAND,
// PSRLW), interleaved back into element order (PUNPCKLBW: element 2j is
// the low nibble of byte j, 2j+1 the high one), widened to int32 and
// converted (CVTPL2PS, exact for 0..15); then each lane computes
// gmin + float32(q)*scale with a MULPS and an ADDPS — the reference
// expression with its two roundings, so the bits are the value table's.
// X4 is zero, X5 the nibble mask, X6 gmin and X7 scale in every lane.
#define DECODE16 \
	MOVQ      (SI), X0   \
	MOVOA     X0, X1     \
	PSRLW     $4, X1     \
	PAND      X5, X0     \
	PAND      X5, X1     \
	PUNPCKLBW X1, X0     \
	MOVOA     X0, X2     \
	PUNPCKLBW X4, X0     \
	PUNPCKHBW X4, X2     \
	MOVOA     X0, X1     \
	MOVOA     X2, X3     \
	PUNPCKLWL X4, X0     \
	PUNPCKHWL X4, X1     \
	PUNPCKLWL X4, X2     \
	PUNPCKHWL X4, X3     \
	CVTPL2PS  X0, X0     \
	CVTPL2PS  X1, X1     \
	CVTPL2PS  X2, X2     \
	CVTPL2PS  X3, X3     \
	MULPS     X7, X0     \
	MULPS     X7, X1     \
	MULPS     X7, X2     \
	MULPS     X7, X3     \
	ADDPS     X6, X0     \
	ADDPS     X6, X1     \
	ADDPS     X6, X2     \
	ADDPS     X6, X3     \
	MOVUPS    X0, (DI)   \
	MOVUPS    X1, 16(DI) \
	MOVUPS    X2, 32(DI) \
	MOVUPS    X3, 48(DI) \
	ADDQ      $8, SI     \
	ADDQ      $64, DI

// HALF widens the finite fp16 value at (ptr) into every lane of dst:
// magnitude bits shifted into float32 position, rescaled by 2^112 (X9) —
// an exact multiply that renormalizes a subnormal half as it goes — and
// the sign ORed back in. Clobbers AX, BX, X8.
#define HALF(ptr, dst) \
	MOVWLZX (ptr), AX    \
	MOVL    AX, BX       \
	ANDL    $0x7fff, AX  \
	SHLL    $13, AX      \
	ANDL    $0x8000, BX  \
	SHLL    $16, BX      \
	MOVL    AX, dst      \
	MULSS   X9, dst      \
	MOVL    BX, X8       \
	ORPS    X8, dst      \
	SHUFPS  $0, dst, dst

// func decode4SSE(out *float32, packed *byte, blocks int, gmin, scale float32)
//
// Sixteen elements per eight packed bytes, blocks times, under one
// (gmin, scale) pair.
TEXT ·decode4SSE(SB), NOSPLIT, $0-32
	MOVQ   out+0(FP), DI
	MOVQ   packed+8(FP), SI
	MOVQ   blocks+16(FP), CX
	MOVSS  gmin+24(FP), X6
	MOVSS  scale+28(FP), X7
	SHUFPS $0, X6, X6
	SHUFPS $0, X7, X7
	MOVQ   $0x0f0f0f0f0f0f0f0f, AX
	MOVQ   AX, X5
	PXOR   X4, X4

block:
	TESTQ CX, CX
	JEQ   done
	DECODE16
	DECQ  CX
	JMP   block

done:
	RET

// func decodeGroupsSSE(out *float32, packed, mins, scales *byte, groups, blocks int)
//
// groups consecutive groups of blocks*16 elements each: per group the two
// little-endian fp16 metadata halves at mins and scales are widened
// (HALF) and the group's blocks decoded (DECODE16), so a run of groups
// costs one call and no Go per group. The halves must be finite — a
// Packed's are, ViewPacked checked — because the rescale does not map an
// all-ones exponent to Inf/NaN.
TEXT ·decodeGroupsSSE(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ packed+8(FP), SI
	MOVQ mins+16(FP), R8
	MOVQ scales+24(FP), R9
	MOVQ groups+32(FP), R10
	MOVQ blocks+40(FP), R11
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X5
	PXOR X4, X4
	MOVL $0x77800000, AX
	MOVL AX, X9

group:
	TESTQ R10, R10
	JEQ   gdone
	HALF(R8, X6)
	HALF(R9, X7)
	MOVQ  R11, CX

gblock:
	DECODE16
	DECQ CX
	JNE  gblock
	ADDQ $2, R8
	ADDQ $2, R9
	DECQ R10
	JMP  group

gdone:
	RET
