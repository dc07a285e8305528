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

// gemv adds x[k] times weight row k to o for every k in [0, len(x)), in
// ascending k, over len(o)/gs whole groups: row k's nibbles start at
// nib[k*nibStride], its fp16 minimums and scales at mins[k*metaStride]
// and scales[k*metaStride]. Groups made of whole 16-element blocks —
// every group at the usual sizes — are decoded where they are multiplied,
// metadata conversion included: the whole k-quads by gemvAVX512 in one
// call, every row added to sums held in registers, where wide512 holds,
// and by axpyRowsSSE, one call per k-quad, everywhere else; then the
// last len(x) mod 4 rows by gemvRef on either level. The two levels
// store the same bits, NaN payloads included, and gemvRef's values
// (DESIGN §3c). Any other group size takes gemvRef.
func gemv(o, x []float32, nib, mins, scales []byte, gs, nibStride, metaStride int) {
	groups := len(o) / gs
	if groups == 0 || len(x) == 0 {
		return
	}
	if gs%16 != 0 {
		gemvRef(o, x, nib, mins, scales, gs, nibStride, metaStride)
		return
	}
	if nibStride < 0 || metaStride < 0 {
		panic("quant: gemv over a negative row stride")
	}
	last := len(x) - 1
	_, _, _ = nib[last*nibStride+groups*gs/2-1], mins[last*metaStride+2*groups-1], scales[last*metaStride+2*groups-1]
	quads := len(x) &^ 3
	if wide512 && quads > 0 {
		gemvAVX512(&o[0], &x[0], &nib[0], &mins[0], &scales[0], quads, nibStride, metaStride, groups, gs/16)
	} else {
		for k := 0; k < quads; k += 4 {
			axpyRowsSSE(&o[0], &nib[k*nibStride], &mins[k*metaStride], &scales[k*metaStride], nibStride, metaStride, groups, gs/16, x[k], x[k+1], x[k+2], x[k+3])
		}
	}
	if k := quads; k < len(x) {
		gemvRef(o, x[k:], nib[k*nibStride:], mins[k*metaStride:], scales[k*metaStride:], gs, nibStride, metaStride)
	}
}

// gemvT adds x_r · w_t to o[r*ldo+t] for every activation row x_r of
// x (len(x)/k rows of k elements) and each of sixteen consecutive table
// rows w_t of k elements, the first of which starts at nib[0] and at
// group g0 of the metadata block meta (every minimum, then every scale;
// groups of gs). Every sum is one ascending-k chain from o's value. With
// wide512, at a group size that is a multiple of 8, gemvTAVX512 runs it,
// eight activation rows a call, one ZMM lane per table row, decoding each
// weight once for all of them; every other case, and every GOARCH but
// amd64, takes gemvTRef. Both store the same bits (DESIGN §3c, "the
// transposed GEMV at sixteen lanes").
func gemvT(o []float32, ldo int, x []float32, nib, meta []byte, g0, gs, k int) {
	rows := len(x) / k
	if !wide512 || gs%8 != 0 || k >= maxGatherRow || rows == 0 {
		gemvTRef(o, ldo, x, nib, meta, g0, gs, k)
		return
	}
	groups, half := k/gs, len(meta)/2
	last := g0 + 16*groups - 1
	// The last nibble dword, output element, minimum dword and scale the
	// gathers and stores reach; the scales start two bytes early.
	_, _, _, _ = nib[16*(k/2)-1], o[(rows-1)*ldo+15], meta[2*last+3], meta[half+2*last+1]
	for r := 0; r < rows; r += 8 {
		gemvTAVX512(&o[r*ldo], ldo, &x[r*k], k, min(8, rows-r), &nib[0], &meta[2*g0], &meta[half+2*g0-2], groups, gs/8)
	}
}

// maxGatherRow bounds the table row length gemvTAVX512 takes: its
// gathers address sixteen rows by 32-bit byte offsets of up to 15·k/2.
const maxGatherRow = 1 << 28

// wide512 is whether gemv runs gemvAVX512 and gemvT gemvTAVX512. It is
// the CPU probe's answer, read once, and a variable only so that tests
// and benchmarks can switch the bodies off and hold them to the same
// bits.
var wide512 = CPUHasAVX512()

//go:noescape
func axpyRowsSSE(o *float32, nib, mins, scales *byte, nibStride, metaStride, groups, blocks int, a0, a1, a2, a3 float32)

//go:noescape
func gemvAVX512(o, x *float32, nib, mins, scales *byte, rows, nibStride, metaStride, groups, blocks int)

//go:noescape
func gemvTAVX512(o *float32, ldo int, x *float32, k, rows int, nib, mins, scales *byte, groups, chunks int)

// CPUHasAVX reports whether the CPU executes AVX and the OS saves the
// YMM registers across context switches: CPUID.1:ECX has OSXSAVE (bit
// 27) and AVX (bit 28), and XCR0 — readable only once OSXSAVE is known
// — enables both the XMM and the YMM state (bits 1 and 2). It is the
// probe behind internal/tensor's AVX bodies; each package reads it once.
func CPUHasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}

// CPUHasAVX512 reports whether the CPU executes every extension the
// 512-bit bodies use and the OS saves the whole ZMM state: CPUHasAVX,
// then CPUID.7.0:EBX has AVX2 (bit 5, for the VEX word broadcast),
// AVX-512F (16), AVX-512BW (30) and AVX-512VL (31), and XCR0 enables the
// opmask, upper-ZMM0-15 and ZMM16-31 state (bits 5, 6 and 7) besides
// bits 1 and 2. It is the probe behind gemvAVX512, gemvTAVX512 and
// internal/tensor's 6x32 register tile; each package reads it once.
func CPUHasAVX512() bool {
	if !CPUHasAVX() {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const avx2, f, bw, vl = 1 << 5, 1 << 16, 1 << 30, 1 << 31
	_, ebx, _, _ := cpuid(7, 0)
	if ebx&(avx2|f|bw|vl) != avx2|f|bw|vl {
		return false
	}
	return xgetbv0()&0xe6 == 0xe6
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
