package quant

// decode4 decodes the whole bytes of one 4-bit group that starts on a
// byte boundary and returns the number of elements written (len(out)
// rounded down to even). Every 4-bit decode in the package goes through
// it. On amd64 the whole 16-element blocks — all of a group at the usual
// sizes — are decoded by decode4SSE (decode4_amd64.s), four elements per
// vector: each lane evaluates gmin + float32(q)*scale, the expression
// decode4Ref tabulates, with the same two roundings, so the bits are the
// table's by construction. What is left of the group (fewer than sixteen
// elements) goes through the table.
func decode4(out []float32, packed []byte, gmin, scale float32) int {
	blocks := len(out) / 16
	if blocks > 0 {
		_ = packed[8*blocks-1]
		decode4SSE(&out[0], &packed[0], blocks, gmin, scale)
	}
	done := 16 * blocks
	if len(out)-done < 2 {
		return done
	}
	return done + decode4Ref(out[done:], packed[8*blocks:], gmin, scale)
}

//go:noescape
func decode4SSE(out *float32, packed *byte, blocks int, gmin, scale float32)

// decodeGroups decodes consecutive whole groups of gs elements:
// len(dst)/gs of them, the first starting at nib[0], with their fp16
// minimums and scales starting at mins[0] and scales[0]. Groups made of
// whole 16-element blocks — every group at the usual sizes — go through
// decodeGroupsSSE in one call, metadata conversion included; any other
// size takes the reference loop.
func decodeGroups(dst []float32, nib, mins, scales []byte, gs int) {
	groups := len(dst) / gs
	if groups == 0 {
		return
	}
	if gs%16 != 0 {
		decodeGroupsRef(dst, nib, mins, scales, gs)
		return
	}
	_, _, _ = nib[groups*gs/2-1], mins[2*groups-1], scales[2*groups-1]
	decodeGroupsSSE(&dst[0], &nib[0], &mins[0], &scales[0], groups, gs/16)
}

//go:noescape
func decodeGroupsSSE(out *float32, packed, mins, scales *byte, groups, blocks int)

// axpyRows adds four rows of len(o)/gs whole groups, scaled by a0..a3,
// to o: row i's nibbles start at nib[i*nibStride], its fp16 minimums and
// scales at mins[i*metaStride] and scales[i*metaStride]. Groups made of
// whole 16-element blocks — every group at the usual sizes — go through
// axpyRowsSSE in one call, metadata conversion included; any other size
// takes the reference body.
func axpyRows(o []float32, nib, mins, scales []byte, gs, nibStride, metaStride int, a0, a1, a2, a3 float32) {
	groups := len(o) / gs
	if groups == 0 {
		return
	}
	if gs%16 != 0 {
		axpyRowsRef(o, nib, mins, scales, gs, nibStride, metaStride, a0, a1, a2, a3)
		return
	}
	_, _, _ = nib[3*nibStride+groups*gs/2-1], mins[3*metaStride+2*groups-1], scales[3*metaStride+2*groups-1]
	axpyRowsSSE(&o[0], &nib[0], &mins[0], &scales[0], nibStride, metaStride, groups, gs/16, a0, a1, a2, a3)
}

//go:noescape
func axpyRowsSSE(o *float32, nib, mins, scales *byte, nibStride, metaStride, groups, blocks int, a0, a1, a2, a3 float32)
