//go:build !amd64

package tensor

// axpy4 adds four terms to every element of o — a0*b0[j], then a1*b1[j],
// a2*b2[j], a3*b3[j]: the one accumulate every matmul in the package
// runs, and attention's. Off amd64 it is the reference loop (see
// kernels_amd64.go).
func axpy4(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	axpy4Ref(o, a0, a1, a2, a3, b0, b1, b2, b3)
}

// axpy4x2 is axpy4 over two output rows that share their b rows.
func axpy4x2(o0, o1, a0, a1, b0, b1, b2, b3 []float32) {
	axpy4x2Ref(o0, o1, a0, a1, b0, b1, b2, b3)
}

// wideAccumulate is always false off amd64: there is no register tile.
var wideAccumulate bool

// tile6x16 is never taken off amd64; it is the reference body behind the
// amd64 wrapper's checks, so that the package builds and its tests run
// everywhere.
func tile6x16(o []float32, ldo int, a []float32, lda int, b []float32, ldb, k int) {
	if ldo < 16 || lda < k || ldb < 16 {
		panic("tensor: tile6x16 rows overlap")
	}
	tile6x16Ref(o, ldo, a, lda, b, ldb, k)
}
