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

// HALF widens the finite fp16 value at src into every lane of dst:
// magnitude bits shifted into float32 position, rescaled by 2^112 (X9) —
// an exact multiply that renormalizes a subnormal half as it goes — and
// the sign ORed back in. Clobbers AX, BX, X8.
#define HALF(src, dst) \
	MOVWLZX src, AX      \
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
	HALF((R8), X6)
	HALF((R9), X7)
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

// AXPYROW adds one k-row's sixteen columns, scaled by a, to the running
// sums X0..X3. The unpack spends no shuffle on interleaving nibbles:
// each output vector is one dword of the row's eight bytes broadcast
// (PSHUFD; PSRLL brings bytes 2j+1..2j+2 down for the odd vectors) and
// masked with X11 = (0xf, 0xf0, 0xf00, 0xf000), so lane i holds
// q·16^i, exact after CVTPL2PS. Its scale slot holds
// scale·(1, 2^-4, 2^-8, 2^-12), exact for a widened half (|scale| is 0
// or at least 2^-24, so no lane reaches a float32 subnormal), and a
// product of two floats is their exact product rounded once: lane i's
// q·16^i × scale·16^-i rounds to the bits of float32(q)*scale. Then
// ADDPS gmin (DECODE16's value, with its operand order), MULPS a and
// ADDPS into the sum (axpy4SSE's term, with its operand order). gmin and
// scale are 16-byte aligned frame slots. Clobbers X4-X7.
#define AXPYROW(src, gmin, scale, a) \
	MOVQ     src, X6       \
	PSHUFD   $0x00, X6, X4 \
	PSHUFD   $0x55, X6, X6 \
	MOVOA    X4, X5        \
	MOVOA    X6, X7        \
	PSRLL    $16, X5       \
	PSRLL    $16, X7       \
	PAND     X11, X4       \
	PAND     X11, X5       \
	PAND     X11, X6       \
	PAND     X11, X7       \
	CVTPL2PS X4, X4        \
	CVTPL2PS X5, X5        \
	CVTPL2PS X6, X6        \
	CVTPL2PS X7, X7        \
	MULPS    scale, X4     \
	MULPS    scale, X5     \
	MULPS    scale, X6     \
	MULPS    scale, X7     \
	ADDPS    gmin, X4      \
	ADDPS    gmin, X5      \
	ADDPS    gmin, X6      \
	ADDPS    gmin, X7      \
	MULPS    a, X4         \
	MULPS    a, X5         \
	MULPS    a, X6         \
	MULPS    a, X7         \
	ADDPS    X4, X0        \
	ADDPS    X5, X1        \
	ADDPS    X6, X2        \
	ADDPS    X7, X3

// nibMask picks nibble i of a broadcast 16-bit pair into lane i;
// nibScale is 16^-i per lane, as float32 bits.
DATA nibMask<>+0(SB)/4, $0x0000000f
DATA nibMask<>+4(SB)/4, $0x000000f0
DATA nibMask<>+8(SB)/4, $0x00000f00
DATA nibMask<>+12(SB)/4, $0x0000f000
GLOBL nibMask<>(SB), RODATA|NOPTR, $16

DATA nibScale<>+0(SB)/4, $0x3f800000
DATA nibScale<>+4(SB)/4, $0x3d800000
DATA nibScale<>+8(SB)/4, $0x3b800000
DATA nibScale<>+12(SB)/4, $0x39800000
GLOBL nibScale<>(SB), RODATA|NOPTR, $16

// func axpyRowsSSE(o *float32, nib, mins, scales *byte, nibStride, metaStride, groups, blocks int, a0, a1, a2, a3 float32)
//
// One k-quad of a packed GEMV for one activation row, decoded where it
// is multiplied: for each of groups groups of blocks*16 columns, the four
// rows' (gmin, scale) halves are widened (HALF) into a 16-byte aligned
// frame, then per 16-column block the four output vectors are loaded
// once, each row's term is added in a0, a1, a2, a3 order (AXPYROW), and
// the vectors are stored. Row i's nibbles start at nib + i*nibStride, its
// halves at mins and scales + i*metaStride; the halves must be finite.
// Every output element gets o + a0*w0, + a1*w1, + a2*w2, + a3*w3 with
// w = gmin + float32(q)*scale: the values, roundings, term order and
// operand order of DECODE16 then axpy4SSE, with no decoded value passing
// through memory.
//
// Registers: DI output, SI row 0 and DX row 3 nibbles, R13 nibStride, R8
// and R9 row 0 halves, R14 metaStride, R10 groups left, R11 blocks per
// group, CX blocks left, R12 the aligned frame (gmin of rows 0-3 at 0-48,
// lane scales at 64-112); X0-X3 sums, X4-X7 one row's block, X8 and X9
// HALF's scratch and 2^112, X10 nibScale, X11 nibMask, X12-X15 a0-a3.
TEXT ·axpyRowsSSE(SB), NOSPLIT, $144-80
	MOVQ   o+0(FP), DI
	MOVQ   nib+8(FP), SI
	MOVQ   mins+16(FP), R8
	MOVQ   scales+24(FP), R9
	MOVQ   nibStride+32(FP), R13
	MOVQ   metaStride+40(FP), R14
	MOVQ   groups+48(FP), R10
	MOVQ   blocks+56(FP), R11
	MOVSS  a0+64(FP), X12
	MOVSS  a1+68(FP), X13
	MOVSS  a2+72(FP), X14
	MOVSS  a3+76(FP), X15
	SHUFPS $0, X12, X12
	SHUFPS $0, X13, X13
	SHUFPS $0, X14, X14
	SHUFPS $0, X15, X15
	LEAQ   (SI)(R13*2), DX
	ADDQ   R13, DX
	LEAQ   15(SP), R12
	ANDQ   $-16, R12
	MOVUPS nibMask<>(SB), X11
	MOVUPS nibScale<>(SB), X10
	MOVL   $0x77800000, AX
	MOVL   AX, X9

rgroup:
	TESTQ  R10, R10
	JEQ    rdone
	HALF((R8), X4)
	MOVAPS X4, 0(R12)
	HALF((R8)(R14*1), X4)
	MOVAPS X4, 16(R12)
	HALF((R8)(R14*2), X4)
	MOVAPS X4, 32(R12)
	LEAQ   (R8)(R14*2), CX
	HALF((CX)(R14*1), X4)
	MOVAPS X4, 48(R12)
	HALF((R9), X4)
	MULPS  X10, X4
	MOVAPS X4, 64(R12)
	HALF((R9)(R14*1), X4)
	MULPS  X10, X4
	MOVAPS X4, 80(R12)
	HALF((R9)(R14*2), X4)
	MULPS  X10, X4
	MOVAPS X4, 96(R12)
	LEAQ   (R9)(R14*2), CX
	HALF((CX)(R14*1), X4)
	MULPS  X10, X4
	MOVAPS X4, 112(R12)
	MOVQ   R11, CX

rblock:
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	AXPYROW((SI), 0(R12), 64(R12), X12)
	AXPYROW((SI)(R13*1), 16(R12), 80(R12), X13)
	AXPYROW((SI)(R13*2), 32(R12), 96(R12), X14)
	AXPYROW((DX), 48(R12), 112(R12), X15)
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $8, SI
	ADDQ   $8, DX
	DECQ   CX
	JNE    rblock
	ADDQ   $2, R8
	ADDQ   $2, R9
	DECQ   R10
	JMP    rgroup

rdone:
	RET
