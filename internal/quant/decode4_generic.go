//go:build !amd64

package quant

// decode4 decodes the whole bytes of one 4-bit group that starts on a
// byte boundary and returns the number of elements written (len(out)
// rounded down to even). Every 4-bit decode in the package goes through
// it. Off amd64 it is the reference table decode (see decode4_amd64.go).
func decode4(out []float32, packed []byte, gmin, scale float32) int {
	return decode4Ref(out, packed, gmin, scale)
}

// decodeGroups decodes consecutive whole groups of gs elements; off amd64
// it is the reference loop (see decode4_amd64.go).
func decodeGroups(dst []float32, nib, mins, scales []byte, gs int) {
	decodeGroupsRef(dst, nib, mins, scales, gs)
}

// gemv adds x times the weight rows to o; off amd64 it is the reference
// body (see decode4_amd64.go).
func gemv(o, x []float32, nib, mins, scales []byte, gs, nibStride, metaStride int) {
	gemvRef(o, x, nib, mins, scales, gs, nibStride, metaStride)
}

// gemvT adds x times sixteen table rows to o; off amd64 it is the
// reference body (see decode4_amd64.go).
func gemvT(o []float32, ldo int, x []float32, nib, meta []byte, g0, gs, k int) {
	gemvTRef(o, ldo, x, nib, meta, g0, gs, k)
}

// wide512 is always false off amd64: there is no AVX-512 body.
var wide512 bool

// CPUHasAVX and CPUHasAVX512 are false off amd64, where no package has
// an AVX or AVX-512 body (see decode4_amd64.go).
func CPUHasAVX() bool    { return false }
func CPUHasAVX512() bool { return false }
