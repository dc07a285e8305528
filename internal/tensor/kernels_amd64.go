package tensor

// Axpy4 adds four terms to every element of o — a0*b0[j], then a1*b1[j],
// a2*b2[j], a3*b3[j] — with the running sum in a register. It is the one
// accumulate every matmul in the package runs, dense or fused, which is
// what makes their outputs agree bit for bit — and, exported for it, the
// attention core's weighted sum of V rows in internal/infer. Only the
// first len(o) elements of each b are read; a shorter b panics.
//
// On amd64 the loop is axpy4SSE (kernels_amd64.s): four columns of o per
// vector. The lanes are columns, not terms, because an output element's
// value is defined by the order its terms are added in: a lane is one
// element keeping its own ascending-k chain, multiplied and added with
// the roundings of the scalar instructions, so the bits are axpy4Ref's
// by construction; lanes over k would need a horizontal add, which
// reorders the sum. No fused multiply-add for the same reason (one
// rounding, not two). Axpy4 is always SSE2, which every amd64 has
// (GOAMD64=v1): it serves decode GEMVs and attention, short bursts where
// a 256-bit body measured slower. Only the tall GEMM's two-row pass
// (axpy4x2Wide) has a second, AVX body, chosen once from CPUID.
func Axpy4(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	if len(o) == 0 {
		return
	}
	axpy4SSE(&o[0], len(o), a0, a1, a2, a3, &b0[0], &b1[0], &b2[0], &b3[0])
}

// axpy4x2 is Axpy4 over two output rows that share their b rows — o0
// with the terms a0[0..3], o1 with a1[0..3] — loading each b vector once
// for both. Each row's elements get exactly the chain Axpy4 gives them.
func axpy4x2(o0, o1, a0, a1, b0, b1, b2, b3 []float32) {
	n := len(o0)
	o1, b0, b1, b2, b3 = o1[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	if n == 0 {
		return
	}
	axpy4x2SSE(&o0[0], &o1[0], n, (*[4]float32)(a0), (*[4]float32)(a1), &b0[0], &b1[0], &b2[0], &b3[0])
}

// wideAccumulate is whether axpy4x2Wide runs axpy4x2AVX: the CPU probe's
// answer, read once. It is a variable only so that tests can switch the
// wide body off and hold both bodies to the same bits.
var wideAccumulate = cpuHasAVX()

// axpy4x2Wide is axpy4x2 for the tall GEMM (see tallGEMMRows): the
// columns in whole sixteens through axpy4x2AVX where the host has AVX,
// the rest — and everything on a host without it — through axpy4x2SSE.
// A lane is a column either way, so the split point changes no bit.
func axpy4x2Wide(o0, o1, a0, a1, b0, b1, b2, b3 []float32) {
	if !wideAccumulate {
		axpy4x2(o0, o1, a0, a1, b0, b1, b2, b3)
		return
	}
	n := len(o0)
	o1, b0, b1, b2, b3 = o1[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	pa0, pa1 := (*[4]float32)(a0), (*[4]float32)(a1)
	m := n &^ 15
	if m > 0 {
		axpy4x2AVX(&o0[0], &o1[0], m, pa0, pa1, &b0[0], &b1[0], &b2[0], &b3[0])
	}
	if m < n {
		axpy4x2SSE(&o0[m], &o1[m], n-m, pa0, pa1, &b0[m], &b1[m], &b2[m], &b3[m])
	}
}

// cpuHasAVX reports whether the CPU executes AVX and the OS saves the
// YMM registers across context switches: CPUID.1:ECX has OSXSAVE (bit
// 27) and AVX (bit 28), and XCR0 — readable only once OSXSAVE is known
// — enables both the XMM and the YMM state (bits 1 and 2).
func cpuHasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

//go:noescape
func axpy4SSE(o *float32, n int, a0, a1, a2, a3 float32, b0, b1, b2, b3 *float32)

//go:noescape
func axpy4x2SSE(o0, o1 *float32, n int, a0, a1 *[4]float32, b0, b1, b2, b3 *float32)

//go:noescape
func axpy4x2AVX(o0, o1 *float32, n int, a0, a1 *[4]float32, b0, b1, b2, b3 *float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
