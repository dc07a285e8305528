//go:build !amd64

package tensor

// Axpy4 adds four terms to every element of o — a0*b0[j], then a1*b1[j],
// a2*b2[j], a3*b3[j]: the one accumulate every matmul in the package
// runs, and internal/infer's attention core. Off amd64 it is the
// reference loop (see kernels_amd64.go).
func Axpy4(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	axpy4Ref(o, a0, a1, a2, a3, b0, b1, b2, b3)
}

// axpy4x2 is Axpy4 over two output rows that share their b rows.
func axpy4x2(o0, o1, a0, a1, b0, b1, b2, b3 []float32) {
	axpy4x2Ref(o0, o1, a0, a1, b0, b1, b2, b3)
}

// wideAccumulate is always false off amd64: there is no wide body.
var wideAccumulate bool

// axpy4x2Wide is axpy4x2 for the tall GEMM; off amd64 it is the
// reference loop too.
func axpy4x2Wide(o0, o1, a0, a1, b0, b1, b2, b3 []float32) {
	axpy4x2Ref(o0, o1, a0, a1, b0, b1, b2, b3)
}
