#include "textflag.h"

// The accumulate kernels of kernels_amd64.go in baseline SSE2 (and, in
// AVX below, the tall GEMM's register tile and the transcendentals of
// GELU, SiLU and softmax, four float64 lanes of math.Exp's non-FMA body
// and of math.Tanh per vector): four output columns per vector, one lane
// per column. A lane does what the scalar reference
// does to its column — MULPS rounds each product as MULSS would, ADDPS
// adds it to the running sum as ADDSS would, the four terms in a0, a1,
// a2, a3 order — so no bit can differ. Nothing is fused (no VFMADD: it
// rounds once), nothing is summed across lanes, and every load and store
// is unaligned (MOVUPS): the arena, an mmap'd checkpoint and stack
// scratch promise no alignment.

// func axpy4SSE(o *float32, n int, a0, a1, a2, a3 float32, b0, b1, b2, b3 *float32)
TEXT ·axpy4SSE(SB), NOSPLIT, $0-64
	MOVQ   o+0(FP), DI
	MOVQ   n+8(FP), CX
	MOVSS  a0+16(FP), X0
	MOVSS  a1+20(FP), X1
	MOVSS  a2+24(FP), X2
	MOVSS  a3+28(FP), X3
	MOVQ   b0+32(FP), R8
	MOVQ   b1+40(FP), R9
	MOVQ   b2+48(FP), R10
	MOVQ   b3+56(FP), R11
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	XORQ   AX, AX

cols8:
	CMPQ   CX, $8
	JLT    cols4
	MOVUPS (DI)(AX*1), X4
	MOVUPS 16(DI)(AX*1), X5
	MOVUPS (R8)(AX*1), X6
	MOVUPS 16(R8)(AX*1), X7
	MULPS  X0, X6
	MULPS  X0, X7
	ADDPS  X6, X4
	ADDPS  X7, X5
	MOVUPS (R9)(AX*1), X8
	MOVUPS 16(R9)(AX*1), X9
	MULPS  X1, X8
	MULPS  X1, X9
	ADDPS  X8, X4
	ADDPS  X9, X5
	MOVUPS (R10)(AX*1), X6
	MOVUPS 16(R10)(AX*1), X7
	MULPS  X2, X6
	MULPS  X2, X7
	ADDPS  X6, X4
	ADDPS  X7, X5
	MOVUPS (R11)(AX*1), X8
	MOVUPS 16(R11)(AX*1), X9
	MULPS  X3, X8
	MULPS  X3, X9
	ADDPS  X8, X4
	ADDPS  X9, X5
	MOVUPS X4, (DI)(AX*1)
	MOVUPS X5, 16(DI)(AX*1)
	ADDQ   $32, AX
	SUBQ   $8, CX
	JMP    cols8

cols4:
	CMPQ   CX, $4
	JLT    cols1
	MOVUPS (DI)(AX*1), X4
	MOVUPS (R8)(AX*1), X6
	MULPS  X0, X6
	ADDPS  X6, X4
	MOVUPS (R9)(AX*1), X8
	MULPS  X1, X8
	ADDPS  X8, X4
	MOVUPS (R10)(AX*1), X6
	MULPS  X2, X6
	ADDPS  X6, X4
	MOVUPS (R11)(AX*1), X8
	MULPS  X3, X8
	ADDPS  X8, X4
	MOVUPS X4, (DI)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX

cols1:
	TESTQ CX, CX
	JEQ   done
	MOVSS (DI)(AX*1), X4
	MOVSS (R8)(AX*1), X6
	MULSS X0, X6
	ADDSS X6, X4
	MOVSS (R9)(AX*1), X8
	MULSS X1, X8
	ADDSS X8, X4
	MOVSS (R10)(AX*1), X6
	MULSS X2, X6
	ADDSS X6, X4
	MOVSS (R11)(AX*1), X8
	MULSS X3, X8
	ADDSS X8, X4
	MOVSS X4, (DI)(AX*1)
	ADDQ  $4, AX
	DECQ  CX
	JMP   cols1

done:
	RET

// func axpy4x2SSE(o0, o1 *float32, n int, a0, a1 *[4]float32, b0, b1, b2, b3 *float32)
//
// Two output rows per pass: each b vector is loaded once and multiplied
// into row 0's running sum by a0[k] and into row 1's by a1[k]. The two
// rows share nothing but the load, so each keeps the chain axpy4SSE gives
// it.
TEXT ·axpy4x2SSE(SB), NOSPLIT, $0-72
	MOVQ   o0+0(FP), DI
	MOVQ   o1+8(FP), SI
	MOVQ   n+16(FP), CX
	MOVQ   a0+24(FP), AX
	MOVQ   a1+32(FP), BX
	MOVQ   b0+40(FP), R8
	MOVQ   b1+48(FP), R9
	MOVQ   b2+56(FP), R10
	MOVQ   b3+64(FP), R11
	MOVSS  0(AX), X0
	MOVSS  4(AX), X1
	MOVSS  8(AX), X2
	MOVSS  12(AX), X3
	MOVSS  0(BX), X4
	MOVSS  4(BX), X5
	MOVSS  8(BX), X6
	MOVSS  12(BX), X7
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	SHUFPS $0, X4, X4
	SHUFPS $0, X5, X5
	SHUFPS $0, X6, X6
	SHUFPS $0, X7, X7
	XORQ   AX, AX

pair8:
	CMPQ   CX, $8
	JLT    pair4
	MOVUPS (DI)(AX*1), X8
	MOVUPS 16(DI)(AX*1), X9
	MOVUPS (SI)(AX*1), X10
	MOVUPS 16(SI)(AX*1), X11
	MOVUPS (R8)(AX*1), X12
	MOVUPS 16(R8)(AX*1), X13
	MOVAPS X12, X14
	MOVAPS X13, X15
	MULPS  X0, X12
	MULPS  X0, X13
	MULPS  X4, X14
	MULPS  X4, X15
	ADDPS  X12, X8
	ADDPS  X13, X9
	ADDPS  X14, X10
	ADDPS  X15, X11
	MOVUPS (R9)(AX*1), X12
	MOVUPS 16(R9)(AX*1), X13
	MOVAPS X12, X14
	MOVAPS X13, X15
	MULPS  X1, X12
	MULPS  X1, X13
	MULPS  X5, X14
	MULPS  X5, X15
	ADDPS  X12, X8
	ADDPS  X13, X9
	ADDPS  X14, X10
	ADDPS  X15, X11
	MOVUPS (R10)(AX*1), X12
	MOVUPS 16(R10)(AX*1), X13
	MOVAPS X12, X14
	MOVAPS X13, X15
	MULPS  X2, X12
	MULPS  X2, X13
	MULPS  X6, X14
	MULPS  X6, X15
	ADDPS  X12, X8
	ADDPS  X13, X9
	ADDPS  X14, X10
	ADDPS  X15, X11
	MOVUPS (R11)(AX*1), X12
	MOVUPS 16(R11)(AX*1), X13
	MOVAPS X12, X14
	MOVAPS X13, X15
	MULPS  X3, X12
	MULPS  X3, X13
	MULPS  X7, X14
	MULPS  X7, X15
	ADDPS  X12, X8
	ADDPS  X13, X9
	ADDPS  X14, X10
	ADDPS  X15, X11
	MOVUPS X8, (DI)(AX*1)
	MOVUPS X9, 16(DI)(AX*1)
	MOVUPS X10, (SI)(AX*1)
	MOVUPS X11, 16(SI)(AX*1)
	ADDQ   $32, AX
	SUBQ   $8, CX
	JMP    pair8

pair4:
	CMPQ   CX, $4
	JLT    pair1
	MOVUPS (DI)(AX*1), X8
	MOVUPS (SI)(AX*1), X10
	MOVUPS (R8)(AX*1), X12
	MOVAPS X12, X14
	MULPS  X0, X12
	MULPS  X4, X14
	ADDPS  X12, X8
	ADDPS  X14, X10
	MOVUPS (R9)(AX*1), X12
	MOVAPS X12, X14
	MULPS  X1, X12
	MULPS  X5, X14
	ADDPS  X12, X8
	ADDPS  X14, X10
	MOVUPS (R10)(AX*1), X12
	MOVAPS X12, X14
	MULPS  X2, X12
	MULPS  X6, X14
	ADDPS  X12, X8
	ADDPS  X14, X10
	MOVUPS (R11)(AX*1), X12
	MOVAPS X12, X14
	MULPS  X3, X12
	MULPS  X7, X14
	ADDPS  X12, X8
	ADDPS  X14, X10
	MOVUPS X8, (DI)(AX*1)
	MOVUPS X10, (SI)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX

pair1:
	TESTQ  CX, CX
	JEQ    pairdone
	MOVSS  (DI)(AX*1), X8
	MOVSS  (SI)(AX*1), X10
	MOVSS  (R8)(AX*1), X12
	MOVAPS X12, X14
	MULSS  X0, X12
	MULSS  X4, X14
	ADDSS  X12, X8
	ADDSS  X14, X10
	MOVSS  (R9)(AX*1), X12
	MOVAPS X12, X14
	MULSS  X1, X12
	MULSS  X5, X14
	ADDSS  X12, X8
	ADDSS  X14, X10
	MOVSS  (R10)(AX*1), X12
	MOVAPS X12, X14
	MULSS  X2, X12
	MULSS  X6, X14
	ADDSS  X12, X8
	ADDSS  X14, X10
	MOVSS  (R11)(AX*1), X12
	MOVAPS X12, X14
	MULSS  X3, X12
	MULSS  X7, X14
	ADDSS  X12, X8
	ADDSS  X14, X10
	MOVSS  X8, (DI)(AX*1)
	MOVSS  X10, (SI)(AX*1)
	ADDQ   $4, AX
	DECQ   CX
	JMP    pair1

pairdone:
	RET

// func tile6x16AVX(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k int)
//
// o[i][j] += a[i][0]*b[0][j] + ... + a[i][k-1]*b[k-1][j] for six rows i
// and sixteen columns j, over the whole of k; the strides are in
// elements. The 6x16 block of o lives in Y0-Y11 from the first k to the
// last: it is loaded once and stored once, where a two-row pass stores
// and reloads it every four k (a float32 store and reload is exact, so
// that changes no bit). Per k, b row k's sixteen columns go into Y12/Y13
// and each row's a[i][k] is broadcast into Y14; the product is rounded
// into Y15 and added to the sum. b is the first source of every VMULPS
// and the running sum the first source of every VADDPS, where
// axpy4x2SSE puts them, so a lane is one element's ascending-k chain
// with MULSS/ADDSS roundings and even a NaN payload comes from the same
// operand. Twelve sums, two b vectors, the broadcast and the product are
// all sixteen YMM registers AVX has. No VFMADD, nothing summed across
// lanes, AVX1 only (VBROADCASTSS from memory), VZEROUPPER before
// returning to SSE code.
TEXT ·tile6x16AVX(SB), NOSPLIT, $0-56
	MOVQ         o+0(FP), DI
	MOVQ         ldo+8(FP), R9
	MOVQ         a+16(FP), SI
	MOVQ         lda+24(FP), R10
	MOVQ         b+32(FP), R8
	MOVQ         ldb+40(FP), R11
	MOVQ         k+48(FP), CX
	TESTQ        CX, CX
	JEQ          tiledone
	SHLQ         $2, R9
	SHLQ         $2, R10
	SHLQ         $2, R11
	LEAQ         (SI)(R10*2), DX
	ADDQ         R10, DX
	MOVQ         DI, AX
	VMOVUPS      (AX), Y0
	VMOVUPS      32(AX), Y1
	ADDQ         R9, AX
	VMOVUPS      (AX), Y2
	VMOVUPS      32(AX), Y3
	ADDQ         R9, AX
	VMOVUPS      (AX), Y4
	VMOVUPS      32(AX), Y5
	ADDQ         R9, AX
	VMOVUPS      (AX), Y6
	VMOVUPS      32(AX), Y7
	ADDQ         R9, AX
	VMOVUPS      (AX), Y8
	VMOVUPS      32(AX), Y9
	ADDQ         R9, AX
	VMOVUPS      (AX), Y10
	VMOVUPS      32(AX), Y11

tilek:
	VMOVUPS      (R8), Y12
	VMOVUPS      32(R8), Y13
	VBROADCASTSS (SI), Y14
	VMULPS       Y14, Y12, Y15
	VADDPS       Y15, Y0, Y0
	VMULPS       Y14, Y13, Y15
	VADDPS       Y15, Y1, Y1
	VBROADCASTSS (SI)(R10*1), Y14
	VMULPS       Y14, Y12, Y15
	VADDPS       Y15, Y2, Y2
	VMULPS       Y14, Y13, Y15
	VADDPS       Y15, Y3, Y3
	VBROADCASTSS (SI)(R10*2), Y14
	VMULPS       Y14, Y12, Y15
	VADDPS       Y15, Y4, Y4
	VMULPS       Y14, Y13, Y15
	VADDPS       Y15, Y5, Y5
	VBROADCASTSS (DX), Y14
	VMULPS       Y14, Y12, Y15
	VADDPS       Y15, Y6, Y6
	VMULPS       Y14, Y13, Y15
	VADDPS       Y15, Y7, Y7
	VBROADCASTSS (DX)(R10*1), Y14
	VMULPS       Y14, Y12, Y15
	VADDPS       Y15, Y8, Y8
	VMULPS       Y14, Y13, Y15
	VADDPS       Y15, Y9, Y9
	VBROADCASTSS (DX)(R10*2), Y14
	VMULPS       Y14, Y12, Y15
	VADDPS       Y15, Y10, Y10
	VMULPS       Y14, Y13, Y15
	VADDPS       Y15, Y11, Y11
	ADDQ         $4, SI
	ADDQ         $4, DX
	ADDQ         R11, R8
	DECQ         CX
	JNE          tilek
	MOVQ         DI, AX
	VMOVUPS      Y0, (AX)
	VMOVUPS      Y1, 32(AX)
	ADDQ         R9, AX
	VMOVUPS      Y2, (AX)
	VMOVUPS      Y3, 32(AX)
	ADDQ         R9, AX
	VMOVUPS      Y4, (AX)
	VMOVUPS      Y5, 32(AX)
	ADDQ         R9, AX
	VMOVUPS      Y6, (AX)
	VMOVUPS      Y7, 32(AX)
	ADDQ         R9, AX
	VMOVUPS      Y8, (AX)
	VMOVUPS      Y9, 32(AX)
	ADDQ         R9, AX
	VMOVUPS      Y10, (AX)
	VMOVUPS      Y11, 32(AX)
	VZEROUPPER

tiledone:
	RET

// func tile6x32AVX512(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k int)
//
// tile6x16AVX at 512 bits: six rows and thirty-two columns over the
// whole of k, the block in Z0-Z11 (two ZMM registers per row), per k b
// row k's thirty-two columns in Z12/Z13, each row's a[i][k] broadcast
// into Z14 and the product rounded into Z15. b is the first source of
// every VMULPS and the running sum the first source of every VADDPS, as
// in tile6x16AVX, so each lane is one element's ascending-k chain with
// the same roundings and the same NaN payloads. AVX-512F only
// (VBROADCASTSS from memory into a ZMM register), no VFMADD, nothing
// summed across lanes, VZEROUPPER before returning.
TEXT ·tile6x32AVX512(SB), NOSPLIT, $0-56
	MOVQ         o+0(FP), DI
	MOVQ         ldo+8(FP), R9
	MOVQ         a+16(FP), SI
	MOVQ         lda+24(FP), R10
	MOVQ         b+32(FP), R8
	MOVQ         ldb+40(FP), R11
	MOVQ         k+48(FP), CX
	TESTQ        CX, CX
	JEQ          zdone
	SHLQ         $2, R9
	SHLQ         $2, R10
	SHLQ         $2, R11
	LEAQ         (SI)(R10*2), DX
	ADDQ         R10, DX
	MOVQ         DI, AX
	VMOVUPS      (AX), Z0
	VMOVUPS      64(AX), Z1
	ADDQ         R9, AX
	VMOVUPS      (AX), Z2
	VMOVUPS      64(AX), Z3
	ADDQ         R9, AX
	VMOVUPS      (AX), Z4
	VMOVUPS      64(AX), Z5
	ADDQ         R9, AX
	VMOVUPS      (AX), Z6
	VMOVUPS      64(AX), Z7
	ADDQ         R9, AX
	VMOVUPS      (AX), Z8
	VMOVUPS      64(AX), Z9
	ADDQ         R9, AX
	VMOVUPS      (AX), Z10
	VMOVUPS      64(AX), Z11

zk:
	VMOVUPS      (R8), Z12
	VMOVUPS      64(R8), Z13
	VBROADCASTSS (SI), Z14
	VMULPS       Z14, Z12, Z15
	VADDPS       Z15, Z0, Z0
	VMULPS       Z14, Z13, Z15
	VADDPS       Z15, Z1, Z1
	VBROADCASTSS (SI)(R10*1), Z14
	VMULPS       Z14, Z12, Z15
	VADDPS       Z15, Z2, Z2
	VMULPS       Z14, Z13, Z15
	VADDPS       Z15, Z3, Z3
	VBROADCASTSS (SI)(R10*2), Z14
	VMULPS       Z14, Z12, Z15
	VADDPS       Z15, Z4, Z4
	VMULPS       Z14, Z13, Z15
	VADDPS       Z15, Z5, Z5
	VBROADCASTSS (DX), Z14
	VMULPS       Z14, Z12, Z15
	VADDPS       Z15, Z6, Z6
	VMULPS       Z14, Z13, Z15
	VADDPS       Z15, Z7, Z7
	VBROADCASTSS (DX)(R10*1), Z14
	VMULPS       Z14, Z12, Z15
	VADDPS       Z15, Z8, Z8
	VMULPS       Z14, Z13, Z15
	VADDPS       Z15, Z9, Z9
	VBROADCASTSS (DX)(R10*2), Z14
	VMULPS       Z14, Z12, Z15
	VADDPS       Z15, Z10, Z10
	VMULPS       Z14, Z13, Z15
	VADDPS       Z15, Z11, Z11
	ADDQ         $4, SI
	ADDQ         $4, DX
	ADDQ         R11, R8
	DECQ         CX
	JNE          zk
	MOVQ         DI, AX
	VMOVUPS      Z0, (AX)
	VMOVUPS      Z1, 64(AX)
	ADDQ         R9, AX
	VMOVUPS      Z2, (AX)
	VMOVUPS      Z3, 64(AX)
	ADDQ         R9, AX
	VMOVUPS      Z4, (AX)
	VMOVUPS      Z5, 64(AX)
	ADDQ         R9, AX
	VMOVUPS      Z6, (AX)
	VMOVUPS      Z7, 64(AX)
	ADDQ         R9, AX
	VMOVUPS      Z8, (AX)
	VMOVUPS      Z9, 64(AX)
	ADDQ         R9, AX
	VMOVUPS      Z10, (AX)
	VMOVUPS      Z11, 64(AX)
	VZEROUPPER

zdone:
	RET

// The transcendentals of GELU, SiLU and attention's softmax, four
// float64 lanes per vector (AVX1 only: the integer work on k is VEX.128,
// joined by VINSERTF128). A lane runs what the scalar code runs for its
// element: the float32 is widened exactly, math.Exp is the non-FMA body
// of math/exp_amd64.s instruction for instruction (k = LOG2E·x rounded
// to nearest by the conversion, x − k·LN2U − k·LN2L, ×1/16, the
// eight-term Horner, four x·(x+2) squarings, +1, ×2^k), math.Tanh is
// math/tanh.go, and every branch of either is a lane select over values
// computed for all four lanes. No VFMADD, nothing summed across lanes.
// The float32 results equal the scalar expressions' on every input
// (TestTranscendentalsExhaustive), whether math.Exp takes its FMA body
// or not. n is a multiple of four.

// Offsets into exptab<>: each constant four times over (32 bytes) so
// that it can be a 256-bit memory operand, then three int32 x4.
#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define C8 128
#define C7 160
#define C6 192
#define C5 224
#define C4 256
#define C3 288
#define HALF 320
#define ONE 352
#define TWO 384
#define OVERFLOW 416
#define KOVERFLOW 448
#define KUNDERFLOW 480
#define KDENORMAL 512
#define TINY 544
#define POSINF 576
#define ABSMASK 608
#define SIGNMASK 640
#define TANHEDGE 672
#define HALFMAXLOG 704
#define P0 736
#define P1 768
#define P2 800
#define Q0 832
#define Q1 864
#define Q2 896
#define GELUC 928
#define GELUA 960
#define BIAS 992
#define DENBIAS 1008
#define DENEDGE 1024

#define CONST4(off, v) \
	DATA exptab<>+(off)(SB)/8, v; \
	DATA exptab<>+(off+8)(SB)/8, v; \
	DATA exptab<>+(off+16)(SB)/8, v; \
	DATA exptab<>+(off+24)(SB)/8, v

#define INT4(off, v) \
	DATA exptab<>+(off)(SB)/4, v; \
	DATA exptab<>+(off+4)(SB)/4, v; \
	DATA exptab<>+(off+8)(SB)/4, v; \
	DATA exptab<>+(off+12)(SB)/4, v

CONST4(LOG2E, $0x3ff71547652b82fe)      // 1.4426950408889634
CONST4(LN2U, $0x3fe62e42fefa3000)       // 0.693147180559663 (upper half of ln 2)
CONST4(LN2L, $0x3d53de6af278ece6)       // 2.8235290563031577e-13 (lower half)
CONST4(SIXTEENTH, $0x3fb0000000000000)  // 0.0625
CONST4(C8, $0x3efa01a01a01a01a)         // 2.4801587301587301587e-5
CONST4(C7, $0x3f2a01a01a01a01a)         // 1.9841269841269841270e-4
CONST4(C6, $0x3f56c16c16c16c17)         // 1.3888888888888888889e-3
CONST4(C5, $0x3f81111111111111)         // 8.3333333333333333333e-3
CONST4(C4, $0x3fa5555555555555)         // 4.1666666666666666667e-2
CONST4(C3, $0x3fc5555555555555)         // 1.6666666666666666667e-1
CONST4(HALF, $0x3fe0000000000000)       // 0.5
CONST4(ONE, $0x3ff0000000000000)        // 1
CONST4(TWO, $0x4000000000000000)        // 2
CONST4(OVERFLOW, $0x40862e42fefa39ef)   // 7.09782712893384e+02
CONST4(KOVERFLOW, $0x4090000000000000)  // 1024: k+1023 >= 0x7FF
CONST4(KUNDERFLOW, $0xc090cc0000000000) // -1075: k+1023 < -52
CONST4(KDENORMAL, $0xc08ff80000000000)  // -1023: k+1023 <= 0
CONST4(TINY, $0x0010000000000000)       // 2^-1022
CONST4(POSINF, $0x7ff0000000000000)
CONST4(ABSMASK, $0x7fffffffffffffff)
CONST4(SIGNMASK, $0x8000000000000000)
CONST4(TANHEDGE, $0x3fe4000000000000)   // 0.625
CONST4(HALFMAXLOG, $0x404601e678fc457b) // 0.5*MAXLOG, past which tanh is ±1
CONST4(P0, $0xbfeedc5baafd6f4b)         // tanhP[0]
CONST4(P1, $0xc058d26a0e26682d)         // tanhP[1]
CONST4(P2, $0xc0993ac030580563)         // tanhP[2]
CONST4(Q0, $0x405c33f28a581b86)         // tanhQ[0]
CONST4(Q1, $0x40a176fa0e5535fa)         // tanhQ[1]
CONST4(Q2, $0x40b2ec102442040c)         // tanhQ[2]
CONST4(GELUC, $0x3fe9884533d43651)      // sqrt(2/pi)
CONST4(GELUA, $0x3fa6e4e26d4801f7)      // 0.044715
INT4(BIAS, $1023)
INT4(DENBIAS, $1022)
INT4(DENEDGE, $-1022)
GLOBL exptab<>(SB), RODATA|NOPTR, $1040

// EXPPOLY sets r to math.Exp's reduced polynomial at x, before the 2^k
// scale, xk to k (int32 lanes) and kd to float64(k). t is scratch.
#define EXPPOLY(x, r, t, xk, kd) \
	VMULPD     exptab<>+LOG2E(SB), x, t; \
	VCVTPD2DQY t, xk; \
	VCVTDQ2PD  xk, kd; \
	VMULPD     exptab<>+LN2U(SB), kd, t; \
	VSUBPD     t, x, r; \
	VMULPD     exptab<>+LN2L(SB), kd, t; \
	VSUBPD     t, r, r; \
	VMULPD     exptab<>+SIXTEENTH(SB), r, r; \
	VMULPD     exptab<>+C8(SB), r, t; \
	VADDPD     exptab<>+C7(SB), t, t; \
	VMULPD     r, t, t; \
	VADDPD     exptab<>+C6(SB), t, t; \
	VMULPD     r, t, t; \
	VADDPD     exptab<>+C5(SB), t, t; \
	VMULPD     r, t, t; \
	VADDPD     exptab<>+C4(SB), t, t; \
	VMULPD     r, t, t; \
	VADDPD     exptab<>+C3(SB), t, t; \
	VMULPD     r, t, t; \
	VADDPD     exptab<>+HALF(SB), t, t; \
	VMULPD     r, t, t; \
	VADDPD     exptab<>+ONE(SB), t, t; \
	VMULPD     t, r, r; \
	VADDPD     exptab<>+TWO(SB), r, t; \
	VMULPD     t, r, r; \
	VADDPD     exptab<>+TWO(SB), r, t; \
	VMULPD     t, r, r; \
	VADDPD     exptab<>+TWO(SB), r, t; \
	VMULPD     t, r, r; \
	VADDPD     exptab<>+TWO(SB), r, t; \
	VMULPD     t, r, r; \
	VADDPD     exptab<>+ONE(SB), r, r

// POW2 sets yk to 2^e for the int32 lanes e in xk (xk and yk are one
// register): each e moved into the high dword of its quadword against
// the zero in xz, shifted up to the exponent field. xt is scratch.
#define POW2(xk, yk, xt, xz) \
	VPUNPCKHDQ  xk, xz, xt; \
	VPUNPCKLDQ  xk, xz, xk; \
	VPSLLQ      $20, xk, xk; \
	VPSLLQ      $20, xt, xt; \
	VINSERTF128 $1, xt, yk, yk

// EXP sets r to math.Exp(x) in every lane, the special cases of
// exp_amd64.s as lane selects: k+1023 <= 0 scales by 2^(k+1022) and
// then 2^-1022, k+1023 < -52 is 0 (-Inf lands here), k+1023 >= 0x7FF
// and x > Overflow are +Inf, a NaN is x itself. t, u, yk, kd and xt
// are scratch; xz is zero.
#define EXP(x, r, t, u, xk, yk, kd, xt, xz) \
	EXPPOLY(x, r, t, xk, kd); \
	VMOVDQU     exptab<>+DENEDGE(SB), xt; \
	VPCMPGTD    xk, xt, xt; \
	VPAND       exptab<>+DENBIAS(SB), xt, xt; \
	VPADDD      xt, xk, xk; \
	VPADDD      exptab<>+BIAS(SB), xk, xk; \
	POW2(xk, yk, xt, xz); \
	VMULPD      yk, r, r; \
	VCMPPD      $0x12, exptab<>+KDENORMAL(SB), kd, u; \
	VMOVUPD     exptab<>+ONE(SB), t; \
	VBLENDVPD   u, exptab<>+TINY(SB), t, t; \
	VMULPD      t, r, r; \
	VCMPPD      $0x11, exptab<>+KUNDERFLOW(SB), kd, u; \
	VANDNPD     r, u, r; \
	VCMPPD      $0x1d, exptab<>+KOVERFLOW(SB), kd, u; \
	VCMPPD      $0x1e, exptab<>+OVERFLOW(SB), x, t; \
	VORPD       t, u, u; \
	VBLENDVPD   u, exptab<>+POSINF(SB), r, r; \
	VCMPPD      $0x03, x, x, u; \
	VBLENDVPD   u, x, r, r

// TANH sets Y8 to math.Tanh(Y1), both of math/tanh.go's branches
// computed for every lane: 1 − 2/(exp(2z)+1) with u's sign, z = |u|,
// and the rational function u + u·s·P(s)/Q(s), s = u·u, for z < 0.625;
// a zero u is returned as is and past 0.5·MAXLOG it is ±1. The exp
// argument is at most MAXLOG where its branch is taken, so only the
// plain 2^k scale is needed. Clobbers Y2-Y7, Y9, Y10; Y15 is zero.
#define TANH \
	VANDPD    exptab<>+ABSMASK(SB), Y1, Y2; \
	VADDPD    Y2, Y2, Y3; \
	EXPPOLY(Y3, Y4, Y7, X5, Y6); \
	VPADDD    exptab<>+BIAS(SB), X5, X5; \
	POW2(X5, Y5, X7, X15); \
	VMULPD    Y5, Y4, Y4; \
	VADDPD    exptab<>+ONE(SB), Y4, Y4; \
	VMOVUPD   exptab<>+TWO(SB), Y7; \
	VDIVPD    Y4, Y7, Y4; \
	VMOVUPD   exptab<>+ONE(SB), Y7; \
	VSUBPD    Y4, Y7, Y4; \
	VANDPD    exptab<>+SIGNMASK(SB), Y1, Y7; \
	VXORPD    Y7, Y4, Y4; \
	VMULPD    Y1, Y1, Y8; \
	VMULPD    exptab<>+P0(SB), Y8, Y9; \
	VADDPD    exptab<>+P1(SB), Y9, Y9; \
	VMULPD    Y8, Y9, Y9; \
	VADDPD    exptab<>+P2(SB), Y9, Y9; \
	VADDPD    exptab<>+Q0(SB), Y8, Y10; \
	VMULPD    Y8, Y10, Y10; \
	VADDPD    exptab<>+Q1(SB), Y10, Y10; \
	VMULPD    Y8, Y10, Y10; \
	VADDPD    exptab<>+Q2(SB), Y10, Y10; \
	VMULPD    Y8, Y1, Y8; \
	VMULPD    Y9, Y8, Y8; \
	VDIVPD    Y10, Y8, Y8; \
	VADDPD    Y8, Y1, Y8; \
	VCMPPD    $0x00, Y15, Y1, Y9; \
	VBLENDVPD Y9, Y1, Y8, Y8; \
	VCMPPD    $0x1d, exptab<>+TANHEDGE(SB), Y2, Y9; \
	VBLENDVPD Y9, Y4, Y8, Y8; \
	VCMPPD    $0x1e, exptab<>+HALFMAXLOG(SB), Y2, Y9; \
	VORPD     exptab<>+ONE(SB), Y7, Y4; \
	VBLENDVPD Y9, Y4, Y8, Y8

// func geluAVX(x *float32, n int)
//
// x[i] = float32(0.5·v·(1 + tanh(c·(v + 0.044715·v·v·v)))), v =
// float64(x[i]), as geluRef computes it.
TEXT ·geluAVX(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	SHRQ   $2, CX
	JEQ    geludone
	VXORPD Y15, Y15, Y15

geluloop:
	VCVTPS2PD (DI), Y0
	VMULPD    exptab<>+GELUA(SB), Y0, Y1
	VMULPD    Y0, Y1, Y1
	VMULPD    Y0, Y1, Y1
	VADDPD    Y1, Y0, Y1
	VMULPD    exptab<>+GELUC(SB), Y1, Y1
	TANH
	VADDPD    exptab<>+ONE(SB), Y8, Y8
	VMULPD    exptab<>+HALF(SB), Y0, Y2
	VMULPD    Y8, Y2, Y2
	VCVTPD2PSY Y2, X2
	VMOVUPS   X2, (DI)
	ADDQ      $16, DI
	DECQ      CX
	JNE       geluloop
	VZEROUPPER

geludone:
	RET

// func siluAVX(x *float32, n int)
//
// x[i] = float32(v / (1 + exp(−v))), v = float64(x[i]), as siluRef
// computes it.
TEXT ·siluAVX(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	SHRQ   $2, CX
	JEQ    siludone
	VXORPD Y15, Y15, Y15

siluloop:
	VCVTPS2PD  (DI), Y0
	VXORPD     exptab<>+SIGNMASK(SB), Y0, Y1
	EXP(Y1, Y2, Y3, Y4, X5, Y5, Y6, X7, X15)
	VADDPD     exptab<>+ONE(SB), Y2, Y2
	VDIVPD     Y2, Y0, Y2
	VCVTPD2PSY Y2, X2
	VMOVUPS    X2, (DI)
	ADDQ       $16, DI
	DECQ       CX
	JNE        siluloop
	VZEROUPPER

siludone:
	RET

// func expShiftAVX(x *float32, n int, shift float32)
//
// x[i] = float32(exp(float64(x[i] − shift))), the subtraction in
// float32, as expShiftRef computes it: softmax's exponentials.
TEXT ·expShiftAVX(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	SHRQ         $2, CX
	JEQ          expdone
	VBROADCASTSS shift+16(FP), X8
	VXORPD       Y15, Y15, Y15

exploop:
	VMOVUPS    (DI), X0
	VSUBPS     X8, X0, X0
	VCVTPS2PD  X0, Y0
	EXP(Y0, Y2, Y3, Y4, X5, Y5, Y6, X7, X15)
	VCVTPD2PSY Y2, X2
	VMOVUPS    X2, (DI)
	ADDQ       $16, DI
	DECQ       CX
	JNE        exploop
	VZEROUPPER

expdone:
	RET

// func expAVX(x *float64, n int)
//
// x[i] = math.Exp(x[i]) in float64, in place: EXP on its own, for the
// tests that hold it to math.Exp's non-FMA body bit for bit.
TEXT ·expAVX(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	SHRQ   $2, CX
	JEQ    exp64done
	VXORPD Y15, Y15, Y15

exp64loop:
	VMOVUPD (DI), Y0
	EXP(Y0, Y2, Y3, Y4, X5, Y5, Y6, X7, X15)
	VMOVUPD Y2, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNE     exp64loop
	VZEROUPPER

exp64done:
	RET

// func tanhAVX(x *float64, n int)
//
// x[i] = math.Tanh(x[i]) in float64, in place: TANH on its own, as
// expAVX is EXP.
TEXT ·tanhAVX(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	SHRQ   $2, CX
	JEQ    tanh64done
	VXORPD Y15, Y15, Y15

tanh64loop:
	VMOVUPD (DI), Y1
	TANH
	VMOVUPD Y8, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNE     tanh64loop
	VZEROUPPER

tanh64done:
	RET

// Decode attention's bodies (attendScores, attendValues in attend.go):
// lanes over positions for the scores, over head columns for the
// weighted sum of V rows, so that a lane is one output's own ascending
// chain — q[d]·K[p][d] over d, w[p]·V[p][d] over p — multiplied and
// added with the roundings of MULSS and ADDSS. No VFMADD, nothing summed
// across lanes, every load and store unaligned. The AVX-512 bodies mask
// the lanes past a short block or past the head width: masked loads
// read nothing there (a masked-off element never faults) and masked
// stores write nothing, so they need no tail.

// func scoresAVX512(s, q *float32, hd int, blocks *kBlock, groups, stride, koff int)
//
// groups groups of four K blocks (kBlock, 48 bytes: k's data pointer at
// 0, n at 32, the lane mask at 40), their scores stored to s one block
// after another, n apiece. Block j's row d starts at k + (koff +
// d*stride)*4 bytes; its sixteen lanes accumulate in Zj from zero. Per
// d, q[d] is broadcast into Z4, multiplied into each block's row under
// its mask (zeroed past n) and added to the running sum: four
// independent chains in flight hide the add's latency.
TEXT ·scoresAVX512(SB), NOSPLIT, $0-56
	MOVQ         s+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         hd+16(FP), CX
	MOVQ         blocks+24(FP), R12
	MOVQ         groups+32(FP), R13
	MOVQ         stride+40(FP), DX
	MOVQ         koff+48(FP), AX
	SHLQ         $2, DX
	SHLQ         $2, AX

sgroup:
	MOVQ         0(R12), R8
	KMOVW        40(R12), K1
	MOVQ         48(R12), R9
	KMOVW        88(R12), K2
	MOVQ         96(R12), R10
	KMOVW        136(R12), K3
	MOVQ         144(R12), R11
	KMOVW        184(R12), K4
	ADDQ         AX, R8
	ADDQ         AX, R9
	ADDQ         AX, R10
	ADDQ         AX, R11
	VPXORD       Z0, Z0, Z0
	VPXORD       Z1, Z1, Z1
	VPXORD       Z2, Z2, Z2
	VPXORD       Z3, Z3, Z3
	XORQ         BX, BX

sd:
	VBROADCASTSS (SI)(BX*4), Z4
	VMULPS.Z     (R8), Z4, K1, Z5
	VADDPS       Z5, Z0, Z0
	VMULPS.Z     (R9), Z4, K2, Z6
	VADDPS       Z6, Z1, Z1
	VMULPS.Z     (R10), Z4, K3, Z7
	VADDPS       Z7, Z2, Z2
	VMULPS.Z     (R11), Z4, K4, Z8
	VADDPS       Z8, Z3, Z3
	ADDQ         DX, R8
	ADDQ         DX, R9
	ADDQ         DX, R10
	ADDQ         DX, R11
	INCQ         BX
	CMPQ         BX, CX
	JLT          sd
	VMOVUPS      Z0, K1, (DI)
	MOVQ         32(R12), BX
	LEAQ         (DI)(BX*4), DI
	VMOVUPS      Z1, K2, (DI)
	MOVQ         80(R12), BX
	LEAQ         (DI)(BX*4), DI
	VMOVUPS      Z2, K3, (DI)
	MOVQ         128(R12), BX
	LEAQ         (DI)(BX*4), DI
	VMOVUPS      Z3, K4, (DI)
	MOVQ         176(R12), BX
	LEAQ         (DI)(BX*4), DI
	ADDQ         $192, R12
	DECQ         R13
	JNE          sgroup
	VZEROUPPER
	RET

// func scoresSSE(s, q *float32, hd int, k *float32, stride, vecs int)
//
// One K block's first 4*vecs positions, four per vector: row d at k +
// d*stride*4 bytes. A whole block (vecs = 4) keeps its four vectors'
// chains in X0-X3 at once; fewer are run one vector at a time.
TEXT ·scoresSSE(SB), NOSPLIT, $0-48
	MOVQ   s+0(FP), DI
	MOVQ   q+8(FP), SI
	MOVQ   hd+16(FP), CX
	MOVQ   k+24(FP), R8
	MOVQ   stride+32(FP), DX
	MOVQ   vecs+40(FP), R9
	SHLQ   $2, DX
	CMPQ   R9, $4
	JLT    sone
	XORPS  X0, X0
	XORPS  X1, X1
	XORPS  X2, X2
	XORPS  X3, X3
	XORQ   BX, BX

squad:
	MOVSS  (SI)(BX*4), X4
	SHUFPS $0, X4, X4
	MOVUPS (R8), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS 16(R8), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS 32(R8), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS 48(R8), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   DX, R8
	INCQ   BX
	CMPQ   BX, CX
	JLT    squad
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

sone:
	TESTQ  R9, R9
	JEQ    sdone
	XORPS  X0, X0
	XORQ   BX, BX
	MOVQ   R8, R10

sonek:
	MOVSS  (SI)(BX*4), X4
	SHUFPS $0, X4, X4
	MOVUPS (R10), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	ADDQ   DX, R10
	INCQ   BX
	CMPQ   BX, CX
	JLT    sonek
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, R8
	DECQ   R9
	JMP    sone

sdone:
	RET

// func valuesAVX512(dst, w *float32, rows *[]float32, n, off int, m0, m1, m2, m3 uint16)
//
// Sixty-four columns of dst, under the four lane masks m0-m3: they are
// loaded once into Z0-Z3 and stored once, and in between every row p < n
// adds w[p]·rows[p][off+c] to each, p ascending. rows is a slice of
// slices (24 bytes an entry, the data pointer first).
TEXT ·valuesAVX512(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         w+8(FP), SI
	MOVQ         rows+16(FP), R12
	MOVQ         n+24(FP), CX
	MOVQ         off+32(FP), AX
	KMOVW        m0+40(FP), K1
	KMOVW        m1+42(FP), K2
	KMOVW        m2+44(FP), K3
	KMOVW        m3+46(FP), K4
	SHLQ         $2, AX
	VMOVUPS.Z    (DI), K1, Z0
	VMOVUPS.Z    64(DI), K2, Z1
	VMOVUPS.Z    128(DI), K3, Z2
	VMOVUPS.Z    192(DI), K4, Z3
	XORQ         BX, BX

vp:
	MOVQ         (R12), R8
	ADDQ         AX, R8
	VBROADCASTSS (SI)(BX*4), Z4
	VMULPS.Z     (R8), Z4, K1, Z5
	VADDPS       Z5, Z0, Z0
	VMULPS.Z     64(R8), Z4, K2, Z6
	VADDPS       Z6, Z1, Z1
	VMULPS.Z     128(R8), Z4, K3, Z7
	VADDPS       Z7, Z2, Z2
	VMULPS.Z     192(R8), Z4, K4, Z8
	VADDPS       Z8, Z3, Z3
	ADDQ         $24, R12
	INCQ         BX
	CMPQ         BX, CX
	JLT          vp
	VMOVUPS      Z0, K1, (DI)
	VMOVUPS      Z1, K2, 64(DI)
	VMOVUPS      Z2, K3, 128(DI)
	VMOVUPS      Z3, K4, 192(DI)
	VZEROUPPER
	RET

// func valuesSSE(dst, w *float32, rows *[]float32, n, off int)
//
// valuesAVX512 at four lanes a vector: sixteen columns of dst in X0-X3,
// loaded once and stored once, every row p < n adding w[p]·rows[p][off+c].
TEXT ·valuesSSE(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), DI
	MOVQ   w+8(FP), SI
	MOVQ   rows+16(FP), R12
	MOVQ   n+24(FP), CX
	MOVQ   off+32(FP), AX
	SHLQ   $2, AX
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	XORQ   BX, BX

vsp:
	MOVQ   (R12), R8
	ADDQ   AX, R8
	MOVSS  (SI)(BX*4), X4
	SHUFPS $0, X4, X4
	MOVUPS (R8), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS 16(R8), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS 32(R8), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS 48(R8), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $24, R12
	INCQ   BX
	CMPQ   BX, CX
	JLT    vsp
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET
