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

// HALF16 widens the fp16 value at src into all sixteen lanes of the
// ZMM register z, whose YMM half is y: VPBROADCASTW copies the half into
// every word of y and VCVTPH2PS converts sixteen of them. The conversion
// is exact for every finite half, subnormals included (it does not heed
// MXCSR's DAZ), so each lane holds HALF's bits.
#define HALF16(src, y, z) \
	VPBROADCASTW src, y \
	VCVTPH2PS    y, z

// DTABLE decodes one weight row's group into its value table in Z4:
// lane q holds gmin + float32(q)·scale, iota (0, 1, …, 15) in Z10. The
// metadata halves at mins and scales are widened (HALF16), then each
// instruction is DECODE16's with the decoded value as first source:
// iota·scale, + gmin. A lane's value is exactly the weight decode4Ref
// tabulates for nibble q. It is built once per weight row and group and
// serves every activation row. Clobbers Z8 and Z9.
#define DTABLE(mins, scales) \
	HALF16(mins, Y8, Z8)   \
	HALF16(scales, Y9, Z9) \
	VMULPS Z9, Z10, Z4     \
	VADDPS Z8, Z4, Z4

// INDEX computes one 16-column block's table indexes into idx, once for
// every activation row. VPBROADCASTQ copies the weight row's eight
// nibble bytes at src into every quadword, so each even dword holds
// nibbles 0-7 and each odd one nibbles 8-15; VPSRLVD by nibShift (Z12)
// brings nibble j/2 of the one and 8 + j/2 of the other into bits 0-3
// of dword j, the only index bits VPERMPS reads. So lane 2i is column i
// and lane 2i+1 column 8+i: the sums are loaded into that order and
// stored out of it once per panel.
#define INDEX(src, idx) \
	VPBROADCASTQ src, idx \
	VPSRLVD      Z12, idx, idx

// PRODUCT multiplies the value table (Z4) by one activation row's x[k],
// broadcast from src, into that row's product table Z5: lane q is the
// term nibble q contributes, the decoded value the first source and the
// product rounded as axpy4SSE rounds it.
#define PRODUCT(src) \
	VMULPS.BCST src, Z4, Z5

// TERM adds one block's terms to its sixteen running sums: VPERMPS picks
// each column's product out of the product table (Z5) by the block's
// indexes, and VADDPS adds it with the sum as first source, as
// axpy4SSE's ADDPS does.
#define TERM(idx, sum) \
	VPERMPS Z5, idx, Z6 \
	VADDPS  Z6, sum, sum

// LOADSUM and STORESUM move sixteen sums between o, in column order, and
// sum, in INDEX's lane order, by the permutations toLanes (Z13) and
// toColumns (Z14); a permutation moves bits, NaN payloads included.
#define LOADSUM(src, sum) \
	VPERMPS src, Z13, sum

#define STORESUM(sum, dst) \
	VPERMPS sum, Z14, sum \
	VMOVUPS sum, dst

// A panel is one to four blocks: four, or the one to three that end a
// group that is not a multiple of 64 columns (R12/8 of them). LOADROW
// and STOREROW move one activation row's panel of sums between its
// output row at AX and its sum registers; ROW adds that row's terms for
// the current k, its x[k] at src, by the indexes in Z0-Z3. Each tests
// the panel's block count and ends at the label done, a branch that goes
// the same way for every weight row of a panel.
#define LOADROW(s0, s1, s2, s3, done) \
	LOADSUM(0(AX), s0)   \
	CMPQ R12, $16        \
	JB   done            \
	LOADSUM(64(AX), s1)  \
	JEQ  done            \
	LOADSUM(128(AX), s2) \
	CMPQ R12, $32        \
	JB   done            \
	LOADSUM(192(AX), s3) \
done:

#define STOREROW(s0, s1, s2, s3, done) \
	STORESUM(s0, 0(AX))   \
	CMPQ R12, $16         \
	JB   done             \
	STORESUM(s1, 64(AX))  \
	JEQ  done             \
	STORESUM(s2, 128(AX)) \
	CMPQ R12, $32         \
	JB   done             \
	STORESUM(s3, 192(AX)) \
done:

#define ROW(src, s0, s1, s2, s3, done) \
	PRODUCT(src)  \
	TERM(Z0, s0)  \
	CMPQ R12, $16 \
	JB   done     \
	TERM(Z1, s1)  \
	JEQ  done     \
	TERM(Z2, s2)  \
	CMPQ R12, $32 \
	JB   done     \
	TERM(Z3, s3)  \
done:

// iota16 is the nibble values 0..15 as float32 bits. nibShift is
// 4·(j/2) per dword j. toLanes is the column each lane holds, toColumns
// the lane each column is in.
DATA iota16<>+0(SB)/8, $0x3f80000000000000
DATA iota16<>+8(SB)/8, $0x4040000040000000
DATA iota16<>+16(SB)/8, $0x40a0000040800000
DATA iota16<>+24(SB)/8, $0x40e0000040c00000
DATA iota16<>+32(SB)/8, $0x4110000041000000
DATA iota16<>+40(SB)/8, $0x4130000041200000
DATA iota16<>+48(SB)/8, $0x4150000041400000
DATA iota16<>+56(SB)/8, $0x4170000041600000
GLOBL iota16<>(SB), RODATA|NOPTR, $64

DATA nibShift<>+0(SB)/8, $0x0000000000000000
DATA nibShift<>+8(SB)/8, $0x0000000400000004
DATA nibShift<>+16(SB)/8, $0x0000000800000008
DATA nibShift<>+24(SB)/8, $0x0000000c0000000c
DATA nibShift<>+32(SB)/8, $0x0000001000000010
DATA nibShift<>+40(SB)/8, $0x0000001400000014
DATA nibShift<>+48(SB)/8, $0x0000001800000018
DATA nibShift<>+56(SB)/8, $0x0000001c0000001c
GLOBL nibShift<>(SB), RODATA|NOPTR, $64

DATA toLanes<>+0(SB)/8, $0x0000000800000000
DATA toLanes<>+8(SB)/8, $0x0000000900000001
DATA toLanes<>+16(SB)/8, $0x0000000a00000002
DATA toLanes<>+24(SB)/8, $0x0000000b00000003
DATA toLanes<>+32(SB)/8, $0x0000000c00000004
DATA toLanes<>+40(SB)/8, $0x0000000d00000005
DATA toLanes<>+48(SB)/8, $0x0000000e00000006
DATA toLanes<>+56(SB)/8, $0x0000000f00000007
GLOBL toLanes<>(SB), RODATA|NOPTR, $64

DATA toColumns<>+0(SB)/8, $0x0000000200000000
DATA toColumns<>+8(SB)/8, $0x0000000600000004
DATA toColumns<>+16(SB)/8, $0x0000000a00000008
DATA toColumns<>+24(SB)/8, $0x0000000e0000000c
DATA toColumns<>+32(SB)/8, $0x0000000300000001
DATA toColumns<>+40(SB)/8, $0x0000000700000005
DATA toColumns<>+48(SB)/8, $0x0000000b00000009
DATA toColumns<>+56(SB)/8, $0x0000000f0000000d
GLOBL toColumns<>(SB), RODATA|NOPTR, $64

// func gemvAVX512(o *float32, ldo int, x *float32, ldx, rows int, nib, mins, scales *byte, depth, nibStride, metaStride, groups, blocks int)
//
// The stacked GEMV over groups groups of blocks*16 columns, for rows (1
// to 4) activation rows at once: o[r*ldo+j] += x[r*ldx+k]·w[k][j] for
// each row r and k = 0..depth-1 in ascending order, weight row k's
// nibbles at nib + k*nibStride, its halves at mins and scales +
// k*metaStride; the halves must be finite. The columns go in panels of
// up to four 16-column blocks that never cross a group: a group of 64
// columns or a multiple is whole panels; any other ends in a panel of
// one to three blocks. A panel's sums, up to four per activation row,
// are loaded from o once, held in Z16-Z31 while every weight row is
// added and stored once. The k loop tests the panel's block count and
// the row count, branches that go the same way for every weight row of
// a panel. Per weight row the group's value table (DTABLE) and each
// block's indexes (INDEX) are built once for all the activation rows;
// each row then costs one multiply (PRODUCT) and a permute and an add
// per block (TERM). Every output element gets o + x0·w0, + x1·w1, …
// with w = gmin + float32(q)*scale: the values, roundings, term order
// and operand order of axpyRowsSSE's k-quads one after the other, so
// the bits are its bits (DESIGN §3c) whichever activation rows share
// the call. It reads eight nibble bytes per weight row and block and
// two bytes per half, as axpyRowsSSE does, so operands that end at a
// guard page are safe. AVX-512 F, AVX2 for the word broadcast; no FMA.
// The sums are zeroed before returning, and VZEROUPPER clears Z0-Z15,
// so no register is left with dirty upper bits for the SSE2 code that
// runs next.
//
// Registers: DI the panel's output in row 0, DX the panel's weight row 0
// nibbles, R8 the group's weight row 0 minimums, R9 scales minus mins,
// R11 ldx and BX three of it in bytes, R12 the nibble bytes of a weight
// row left in the group (eight a block), R13 nibStride, R14 metaStride;
// in the k loop CX the weight rows left, SI their nibbles, AX their
// minimums and R10 x at k; around it CX is ldo in bytes and AX an output
// row. 0(SP) is the end of output row 0. Z0-Z3 the block indexes, Z4 the
// value table, Z5 a product table, Z6 a term, Z8 and Z9 DTABLE's
// scratch, Z10 iota16, Z12 nibShift, Z13 toLanes, Z14 toColumns, Z16-Z31
// the sums, activation row r's four blocks in Z16+4r to Z19+4r.
TEXT ·gemvAVX512(SB), NOSPLIT, $8-104
	MOVQ      o+0(FP), DI
	MOVQ      ldx+24(FP), R11
	SHLQ      $2, R11
	LEAQ      (R11)(R11*2), BX
	MOVQ      nib+40(FP), DX
	MOVQ      mins+48(FP), R8
	MOVQ      scales+56(FP), R9
	SUBQ      R8, R9
	MOVQ      nibStride+72(FP), R13
	MOVQ      metaStride+80(FP), R14
	MOVQ      groups+88(FP), AX
	IMULQ     blocks+96(FP), AX
	SHLQ      $6, AX
	ADDQ      DI, AX
	MOVQ      AX, 0(SP)
	VMOVUPS   iota16<>(SB), Z10
	VMOVDQU32 nibShift<>(SB), Z12
	VMOVDQU32 toLanes<>(SB), Z13
	VMOVDQU32 toColumns<>(SB), Z14

ggroup:
	MOVQ blocks+96(FP), R12
	SHLQ $3, R12

gpanel:
	MOVQ ldo+8(FP), CX
	SHLQ $2, CX
	MOVQ DI, AX
	MOVQ DX, SI
	LOADROW(Z16, Z17, Z18, Z19, gl0)
	CMPQ rows+32(FP), $2
	JB   gloaded
	ADDQ CX, AX
	LOADROW(Z20, Z21, Z22, Z23, gl1)
	CMPQ rows+32(FP), $3
	JB   gloaded
	ADDQ CX, AX
	LOADROW(Z24, Z25, Z26, Z27, gl2)
	CMPQ rows+32(FP), $4
	JB   gloaded
	ADDQ CX, AX
	LOADROW(Z28, Z29, Z30, Z31, gl3)

gloaded:
	MOVQ R8, AX
	MOVQ x+16(FP), R10
	MOVQ depth+64(FP), CX

gk:
	DTABLE((AX), (AX)(R9*1))
	INDEX(0(SI), Z0)
	CMPQ R12, $16
	JB   gindexed
	INDEX(8(SI), Z1)
	JEQ  gindexed
	INDEX(16(SI), Z2)
	CMPQ R12, $32
	JB   gindexed
	INDEX(24(SI), Z3)

gindexed:
	ROW((R10), Z16, Z17, Z18, Z19, gr0)
	CMPQ rows+32(FP), $2
	JB   gnext
	ROW((R10)(R11*1), Z20, Z21, Z22, Z23, gr1)
	CMPQ rows+32(FP), $3
	JB   gnext
	ROW((R10)(R11*2), Z24, Z25, Z26, Z27, gr2)
	CMPQ rows+32(FP), $4
	JB   gnext
	ROW((R10)(BX*1), Z28, Z29, Z30, Z31, gr3)

gnext:
	ADDQ R13, SI
	ADDQ R14, AX
	ADDQ $4, R10
	DECQ CX
	JNE  gk
	MOVQ ldo+8(FP), CX
	SHLQ $2, CX
	MOVQ DI, AX
	STOREROW(Z16, Z17, Z18, Z19, gs0)
	CMPQ rows+32(FP), $2
	JB   gstored
	ADDQ CX, AX
	STOREROW(Z20, Z21, Z22, Z23, gs1)
	CMPQ rows+32(FP), $3
	JB   gstored
	ADDQ CX, AX
	STOREROW(Z24, Z25, Z26, Z27, gs2)
	CMPQ rows+32(FP), $4
	JB   gstored
	ADDQ CX, AX
	STOREROW(Z28, Z29, Z30, Z31, gs3)

gstored:
	MOVQ    $32, AX
	CMPQ    R12, AX
	CMOVQLT R12, AX
	ADDQ    AX, DX
	LEAQ    (DI)(AX*8), DI
	SUBQ    AX, R12
	JNE     gpanel
	ADDQ    $2, R8
	CMPQ    DI, 0(SP)
	JNE     ggroup
	VPXORD X16, X16, X16
	VPXORD X17, X17, X17
	VPXORD X18, X18, X18
	VPXORD X19, X19, X19
	VPXORD X20, X20, X20
	VPXORD X21, X21, X21
	VPXORD X22, X22, X22
	VPXORD X23, X23, X23
	VPXORD X24, X24, X24
	VPXORD X25, X25, X25
	VPXORD X26, X26, X26
	VPXORD X27, X27, X27
	VPXORD X28, X28, X28
	VPXORD X29, X29, X29
	VPXORD X30, X30, X30
	VPXORD X31, X31, X31
	VZEROUPPER
	RET

// ROWT adds one activation row's term for the current k to the sixteen
// table-row sums in sum: VMULPS multiplies the decoded weights (Z8) by
// x[k] broadcast from src (.BCST, an embedded four-byte broadcast) into
// Z12, and VADDPS adds that product to the sum with the sum as first
// source, as dotFrom's s += x*w does.
#define ROWT(src, sum) \
	VMULPS.BCST src, Z8, Z12 \
	VADDPS      Z12, sum, sum

// lanes16 is the lane numbers 0..15 as int32s: times a row stride, the
// byte offsets a gather reads sixteen rows at.
DATA lanes16<>+0(SB)/8, $0x0000000100000000
DATA lanes16<>+8(SB)/8, $0x0000000300000002
DATA lanes16<>+16(SB)/8, $0x0000000500000004
DATA lanes16<>+24(SB)/8, $0x0000000700000006
DATA lanes16<>+32(SB)/8, $0x0000000900000008
DATA lanes16<>+40(SB)/8, $0x0000000b0000000a
DATA lanes16<>+48(SB)/8, $0x0000000d0000000c
DATA lanes16<>+56(SB)/8, $0x0000000f0000000e
GLOBL lanes16<>(SB), RODATA|NOPTR, $64

// func gemvTAVX512(o *float32, ldo int, x *float32, k, rows int, nib, mins, scales *byte, groups, chunks int)
//
// The transposed GEMV at sixteen lanes: for each of rows (1 to 8)
// activation rows x_r = x[r*k : (r+1)*k] and each of sixteen table rows
// t, o[r*ldo+t] += x_r · w_t, one ZMM lane per table row, each lane one
// ascending-k chain that starts from o and is stored back once. Table
// row t's nibbles start at nib + t*k/2, its minimums at mins +
// t*2*groups and its scales two bytes after scales + t*2*groups; a row
// is groups groups of chunks*8 elements.
// The lanes are rows, not k, because a logit's value is the order its
// terms are added in: nothing is summed across lanes.
//
// Per group one dword gather fetches every row's minimum at its own
// address (the low word; the other is the next minimum, or for the last
// one the first scale) and one every row's scale at its address minus 2
// (the high word; the other is the previous scale, or for the first one
// the last minimum), so neither reads outside the metadata block, even
// at its first half or its last. VPSRLD $16 brings the scales down,
// VPMOVDW keeps the low words and VCVTPH2PS widens them, exactly for
// every finite half. Per eight
// k one gather fetches each row's next four nibble bytes; per k VPANDD
// takes each lane's low nibble and VPSRLD moves the next one down, then
// VCVTDQ2PS, VMULPS by the scale and VADDPS of the minimum (the minimum
// the first source) make decode4Ref's gmin + float32(float32(q)*scale)
// with its two roundings, and ROWT adds x_r[k] times it to each row's
// sum. So every lane adds the terms dot4From adds to that logit, with
// the same roundings, in the same order: no FMA. The weight is finite,
// so a NaN product comes only from x[k] (or Inf·0) and is the scalar
// product's NaN. AVX-512 F; only Z0-Z15, so VZEROUPPER leaves no dirty
// upper state.
//
// Registers: DI o, R14 ldo in bytes, SI x_0 at k and BX x_4 at k, R8
// the row stride of x in bytes and R9 three of them, R10 rows, DX the
// nibble cursor, R11 the minimums and R12 the scales cursor, R13 groups
// left, CX chunks left in the group, AX k left in the chunk. Z0-Z7 the
// sums of rows 0-7, Z8 the decoded weights, Z9 the minimums, Z10 the
// scales, Z11 the chunk's nibbles, Z12 a product, Z13 the nibble mask,
// Z14 and Z15 the nibble and metadata gather offsets.
TEXT ·gemvTAVX512(SB), NOSPLIT, $0-80
	MOVQ         o+0(FP), DI
	MOVQ         ldo+8(FP), R14
	SHLQ         $2, R14
	MOVQ         x+16(FP), SI
	MOVQ         k+24(FP), R8
	MOVQ         rows+32(FP), R10
	MOVQ         nib+40(FP), DX
	MOVQ         mins+48(FP), R11
	MOVQ         scales+56(FP), R12
	MOVQ         groups+64(FP), R13
	MOVQ         R8, AX
	SHRQ         $1, AX
	VPBROADCASTD AX, Z14
	VPMULLD      lanes16<>(SB), Z14, Z14
	MOVQ         R13, AX
	SHLQ         $1, AX
	VPBROADCASTD AX, Z15
	VPMULLD      lanes16<>(SB), Z15, Z15
	MOVL         $15, AX
	VPBROADCASTD AX, Z13
	SHLQ         $2, R8
	LEAQ         (R8)(R8*2), R9
	LEAQ         (SI)(R8*4), BX

	MOVQ    DI, AX
	VMOVUPS (AX), Z0
	CMPQ    R10, $2
	JB      tgroup
	ADDQ    R14, AX
	VMOVUPS (AX), Z1
	CMPQ    R10, $3
	JB      tgroup
	ADDQ    R14, AX
	VMOVUPS (AX), Z2
	CMPQ    R10, $4
	JB      tgroup
	ADDQ    R14, AX
	VMOVUPS (AX), Z3
	CMPQ    R10, $5
	JB      tgroup
	ADDQ    R14, AX
	VMOVUPS (AX), Z4
	CMPQ    R10, $6
	JB      tgroup
	ADDQ    R14, AX
	VMOVUPS (AX), Z5
	CMPQ    R10, $7
	JB      tgroup
	ADDQ    R14, AX
	VMOVUPS (AX), Z6
	CMPQ    R10, $8
	JB      tgroup
	ADDQ    R14, AX
	VMOVUPS (AX), Z7

tgroup:
	KXNORW     K1, K1, K1
	VPGATHERDD (R11)(Z15*1), K1, Z9
	KXNORW     K2, K2, K2
	VPGATHERDD (R12)(Z15*1), K2, Z10
	VPMOVDW    Z9, Y9
	VCVTPH2PS  Y9, Z9
	VPSRLD     $16, Z10, Z10
	VPMOVDW    Z10, Y10
	VCVTPH2PS  Y10, Z10
	ADDQ       $2, R11
	ADDQ       $2, R12
	MOVQ       chunks+72(FP), CX

tchunk:
	KXNORW     K1, K1, K1
	VPGATHERDD (DX)(Z14*1), K1, Z11
	ADDQ       $4, DX
	MOVL       $8, AX

tk:
	VPANDD    Z13, Z11, Z8
	VPSRLD    $4, Z11, Z11
	VCVTDQ2PS Z8, Z8
	VMULPS    Z10, Z8, Z8
	VADDPS    Z8, Z9, Z8
	ROWT((SI), Z0)
	CMPQ      R10, $2
	JB        tnextk
	ROWT((SI)(R8*1), Z1)
	CMPQ      R10, $3
	JB        tnextk
	ROWT((SI)(R8*2), Z2)
	CMPQ      R10, $4
	JB        tnextk
	ROWT((SI)(R9*1), Z3)
	CMPQ      R10, $5
	JB        tnextk
	ROWT((BX), Z4)
	CMPQ      R10, $6
	JB        tnextk
	ROWT((BX)(R8*1), Z5)
	CMPQ      R10, $7
	JB        tnextk
	ROWT((BX)(R8*2), Z6)
	CMPQ      R10, $8
	JB        tnextk
	ROWT((BX)(R9*1), Z7)

tnextk:
	ADDQ $4, SI
	ADDQ $4, BX
	DECL AX
	JNE  tk
	DECQ CX
	JNE  tchunk
	DECQ R13
	JNE  tgroup

	MOVQ    DI, AX
	VMOVUPS Z0, (AX)
	CMPQ    R10, $2
	JB      tstored
	ADDQ    R14, AX
	VMOVUPS Z1, (AX)
	CMPQ    R10, $3
	JB      tstored
	ADDQ    R14, AX
	VMOVUPS Z2, (AX)
	CMPQ    R10, $4
	JB      tstored
	ADDQ    R14, AX
	VMOVUPS Z3, (AX)
	CMPQ    R10, $5
	JB      tstored
	ADDQ    R14, AX
	VMOVUPS Z4, (AX)
	CMPQ    R10, $6
	JB      tstored
	ADDQ    R14, AX
	VMOVUPS Z5, (AX)
	CMPQ    R10, $7
	JB      tstored
	ADDQ    R14, AX
	VMOVUPS Z6, (AX)
	CMPQ    R10, $8
	JB      tstored
	ADDQ    R14, AX
	VMOVUPS Z7, (AX)

tstored:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
