//go:build !amd64

package tensor

// axpy4 adds four terms to every element of o — a0*b0[j], then a1*b1[j],
// a2*b2[j], a3*b3[j]: the one accumulate every matmul in the package
// runs, and prefill attention's tails. Off amd64 it is the reference loop
// (see kernels_amd64.go).
func axpy4(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	axpy4Ref(o, a0, a1, a2, a3, b0, b1, b2, b3)
}

// axpy4x2 is axpy4 over two output rows that share their b rows.
func axpy4x2(o0, o1, a0, a1, b0, b1, b2, b3 []float32) {
	axpy4x2Ref(o0, o1, a0, a1, b0, b1, b2, b3)
}

// wideAccumulate and wide512 are always false off amd64: there is no
// register tile and no vector transcendental.
var wideAccumulate, wide512 bool

// attendLanes is always the Go twins off amd64.
var attendLanes = attendTwin

// attendScores and attendValues are the decode attention's Go twins off
// amd64 (see kernels_amd64.go).
func attendScores(s, qh []float32, blocks []kBlock, nb, stride, off int) {
	for _, b := range blocks[:nb] {
		if b.p0 >= len(s) {
			break
		}
		scoreBlockRef(s, qh, b, stride, off, 0, min(b.n, len(s)-b.p0))
	}
}

func attendValues(dst, w []float32, vrows [][]float32, off int) { valuesRef(dst, w, vrows, off, 0) }

// geluElems, siluElems and expShift are their scalar bodies off amd64.
func geluElems(data []float32)            { geluRef(data) }
func siluElems(data []float32)            { siluRef(data) }
func expShift(s []float32, shift float32) { expShiftRef(s, shift) }

// tile6x16 is never taken off amd64; it is the reference body behind the
// amd64 wrapper's checks, so that the package builds and its tests run
// everywhere.
func tile6x16(o []float32, ldo int, a []float32, lda int, b []float32, ldb, k int) {
	if ldo < 16 || lda < k || ldb < 16 {
		panic("tensor: tile6x16 rows overlap")
	}
	tileRef(o, ldo, a, lda, b, ldb, k, 16)
}

// tile6x32 is tile6x16 over thirty-two columns, likewise never taken.
func tile6x32(o []float32, ldo int, a []float32, lda int, b []float32, ldb, k int) {
	if ldo < 32 || lda < k || ldb < 32 {
		panic("tensor: tile6x32 rows overlap")
	}
	tileRef(o, ldo, a, lda, b, ldb, k, 32)
}
