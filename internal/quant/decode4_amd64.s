#include "textflag.h"

// func decode4SSE(out *float32, packed *byte, blocks int, gmin, scale float32)
//
// Sixteen elements per eight packed bytes, in baseline SSE2. The nibbles
// are split (PAND, PSRLW), interleaved back into element order
// (PUNPCKLBW: element 2j is the low nibble of byte j, 2j+1 the high one),
// widened to int32 and converted (CVTPL2PS, exact for 0..15); then each
// lane computes gmin + float32(q)*scale with a MULPS and an ADDPS — the
// reference expression with its two roundings, so the bits are the value
// table's.
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
	TESTQ     CX, CX
	JEQ       done
	MOVQ      (SI), X0
	MOVOA     X0, X1
	PSRLW     $4, X1
	PAND      X5, X0
	PAND      X5, X1
	PUNPCKLBW X1, X0
	MOVOA     X0, X2
	PUNPCKLBW X4, X0
	PUNPCKHBW X4, X2
	MOVOA     X0, X1
	MOVOA     X2, X3
	PUNPCKLWL X4, X0
	PUNPCKHWL X4, X1
	PUNPCKLWL X4, X2
	PUNPCKHWL X4, X3
	CVTPL2PS  X0, X0
	CVTPL2PS  X1, X1
	CVTPL2PS  X2, X2
	CVTPL2PS  X3, X3
	MULPS     X7, X0
	MULPS     X7, X1
	MULPS     X7, X2
	MULPS     X7, X3
	ADDPS     X6, X0
	ADDPS     X6, X1
	ADDPS     X6, X2
	ADDPS     X6, X3
	MOVUPS    X0, (DI)
	MOVUPS    X1, 16(DI)
	MOVUPS    X2, 32(DI)
	MOVUPS    X3, 48(DI)
	ADDQ      $8, SI
	ADDQ      $64, DI
	DECQ      CX
	JMP       block

done:
	RET
