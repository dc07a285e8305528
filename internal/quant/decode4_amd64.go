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
