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

// axpyRows adds four rows of whole groups, scaled, to o; off amd64 it is
// the reference body (see decode4_amd64.go).
func axpyRows(o []float32, nib, mins, scales []byte, gs, nibStride, metaStride int, a0, a1, a2, a3 float32) {
	axpyRowsRef(o, nib, mins, scales, gs, nibStride, metaStride, a0, a1, a2, a3)
}
