package tensor

import "helmsim/internal/quant"

// axpy4 adds four terms to every element of o — a0*b0[j], then a1*b1[j],
// a2*b2[j], a3*b3[j] — with the running sum in a register. It is the one
// accumulate every matmul in the package runs, dense or fused, which is
// what makes their outputs agree bit for bit, and attention's weighted
// sum of V rows. Only the first len(o) elements of each b are read; a
// shorter b panics.
//
// On amd64 the loop is axpy4SSE (kernels_amd64.s): four columns of o per
// vector. The lanes are columns, not terms, because an output element's
// value is defined by the order its terms are added in: a lane is one
// element keeping its own ascending-k chain, multiplied and added with
// the roundings of the scalar instructions, so the bits are axpy4Ref's
// by construction; lanes over k would need a horizontal add, which
// reorders the sum. No fused multiply-add for the same reason (one
// rounding, not two). axpy4 is always SSE2, which every amd64 has
// (GOAMD64=v1): it serves dense decode GEMVs and attention, short bursts
// where a 256-bit body measured slower. The wider bodies are chosen once
// from CPUID: the tall GEMM's register tiles (tile6x16 on AVX, tile6x32
// on AVX-512) here, and in internal/quant, whose probe both packages
// read, the fused 4-bit kernels' AVX-512 bodies: the GEMV of a decode
// step's one to eight rows (Packed.Gemv) and the logits'
// sixteen-table-row leaf (Packed.GemvT).
func axpy4(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	if len(o) == 0 {
		return
	}
	axpy4SSE(&o[0], len(o), a0, a1, a2, a3, &b0[0], &b1[0], &b2[0], &b3[0])
}

// axpy4x2 is axpy4 over two output rows that share their b rows — o0
// with the terms a0[0..3], o1 with a1[0..3] — loading each b vector once
// for both. Each row's elements get exactly the chain axpy4 gives them.
func axpy4x2(o0, o1, a0, a1, b0, b1, b2, b3 []float32) {
	n := len(o0)
	o1, b0, b1, b2, b3 = o1[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	if n == 0 {
		return
	}
	axpy4x2SSE(&o0[0], &o1[0], n, (*[4]float32)(a0), (*[4]float32)(a1), &b0[0], &b1[0], &b2[0], &b3[0])
}

// wideAccumulate is whether the package's AVX bodies run:
// matMulTile's register tiles (tile6x16AVX), taken only in a GEMM taller
// than tallGEMMRows, and the transcendentals of GELU, SiLU and softmax
// (geluAVX, siluAVX, expShiftAVX), taken at every call. wide512 is
// whether, on top of that, matMulTile runs thirty-two-column tiles
// (tile6x32AVX512); the packed kernels ask quant.Packed which of its
// bodies run (GemvStacked, GemvTWide). Each is the CPU probe's answer (quant.CPUHasAVX,
// quant.CPUHasAVX512), read once, and a variable only so that tests and
// benchmarks can switch the bodies off and hold every path to the same
// bits.
var (
	wideAccumulate = quant.CPUHasAVX()
	wide512        = quant.CPUHasAVX512()
)

// geluElems applies GELU to data in place. On a host with AVX the whole
// vectors of four go through geluAVX and the n mod 4 tail through
// geluRef; without AVX geluRef takes it all. Both store the bits of the
// scalar expression (kernels_amd64.s says why the vector body can).
func geluElems(data []float32) {
	for wideAccumulate && len(data) >= 4 {
		n := min(len(data)&^3, vectorBlock)
		geluAVX(&data[0], n)
		data = data[n:]
	}
	geluRef(data)
}

// siluElems is geluElems for SiLU (siluAVX, siluRef).
func siluElems(data []float32) {
	for wideAccumulate && len(data) >= 4 {
		n := min(len(data)&^3, vectorBlock)
		siluAVX(&data[0], n)
		data = data[n:]
	}
	siluRef(data)
}

// expShift sets s[p] = exp(s[p]-shift), softmax's exponentials, as
// geluElems does GELU (expShiftAVX, expShiftRef).
func expShift(s []float32, shift float32) {
	for wideAccumulate && len(s) >= 4 {
		n := min(len(s)&^3, vectorBlock)
		expShiftAVX(&s[0], n, shift)
		s = s[n:]
	}
	expShiftRef(s, shift)
}

// vectorBlock is the most elements one call into a vector
// transcendental takes, about 6 µs of GELU: assembly cannot be
// preempted, so a long activation returns to Go between blocks and the
// non-preemptible stretch stays as short as the other leaves' (a serial
// 128x1536 GELU in one call would be over a millisecond).
const vectorBlock = 1024

// tile6x16 adds to six rows and sixteen columns of o — o[i*ldo+j] for
// i < 6, j < 16 — the k terms a[i*lda+kk]*b[kk*ldb+j], kk ascending,
// with the running sums in registers across the whole of k
// (tile6x16AVX). Strides are in elements, and rows may not overlap. The
// last element each operand's rows reach is indexed before the assembly
// runs, so a short operand panics instead of being read past.
func tile6x16(o []float32, ldo int, a []float32, lda int, b []float32, ldb, k int) {
	if ldo < 16 || lda < k || ldb < 16 {
		panic("tensor: tile6x16 rows overlap")
	}
	if k == 0 {
		return
	}
	_, _, _ = o[5*ldo+15], a[5*lda+k-1], b[(k-1)*ldb+15]
	tile6x16AVX(&o[0], ldo, &a[0], lda, &b[0], ldb, k)
}

// tile6x32 is tile6x16 over thirty-two columns (tile6x32AVX512).
func tile6x32(o []float32, ldo int, a []float32, lda int, b []float32, ldb, k int) {
	if ldo < 32 || lda < k || ldb < 32 {
		panic("tensor: tile6x32 rows overlap")
	}
	if k == 0 {
		return
	}
	_, _, _ = o[5*ldo+31], a[5*lda+k-1], b[(k-1)*ldb+31]
	tile6x32AVX512(&o[0], ldo, &a[0], lda, &b[0], ldb, k)
}

//go:noescape
func axpy4SSE(o *float32, n int, a0, a1, a2, a3 float32, b0, b1, b2, b3 *float32)

//go:noescape
func axpy4x2SSE(o0, o1 *float32, n int, a0, a1 *[4]float32, b0, b1, b2, b3 *float32)

//go:noescape
func tile6x16AVX(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k int)

//go:noescape
func tile6x32AVX512(o *float32, ldo int, a *float32, lda int, b *float32, ldb, k int)

//go:noescape
func geluAVX(x *float32, n int)

//go:noescape
func siluAVX(x *float32, n int)

//go:noescape
func expShiftAVX(x *float32, n int, shift float32)

// expAVX and tanhAVX run the vector bodies' exp and tanh on float64s in
// place, n a multiple of four; only the tests call them.

//go:noescape
func expAVX(x *float64, n int)

//go:noescape
func tanhAVX(x *float64, n int)
