#include "textflag.h"

// The accumulate kernels of kernels_amd64.go in baseline SSE2 (and the
// tall GEMM's register tile in AVX, below): four output columns per
// vector, one lane per column. A lane does what the scalar reference
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
