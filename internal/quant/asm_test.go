package quant

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// decode4 against its reference body, where assembly goes wrong: lengths
// around the 16-element block, operands that start anywhere in a vector,
// metadata whose handling differs between a right and a nearly-right
// instruction sequence, and the memory on both sides of the output. Off
// amd64 decode4 is decode4Ref and these pass trivially.

// sameBits demands identical bit patterns; two NaNs count as equal
// whatever their payloads (with a NaN minimum and a NaN scale, which
// payload the add keeps is the instruction selector's business).
func sameBits(x, y float32) bool {
	if x != x || y != y {
		return x != x && y != y
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

// awkwardMeta are group minima and scales that no finite fp16 pair
// produces but the expression must still round identically on.
var awkwardMeta = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -1e-40, 5.9604645e-08 /* smallest fp16 */, 65504, -65504, math.MaxFloat32, 1.0 / 3,
}

func decodeLengths() []int {
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1535, 1536, 1537)
}

const sentinel = -12345.5

// checkDecode4 runs decode4 and decode4Ref over the same operands — out
// starting off elements into a sentinel-filled backing array, packed
// starting off bytes into its own — and compares the return value, every
// decoded element and every sentinel.
func checkDecode4(t *testing.T, packed []byte, n, off int, gmin, scale float32) {
	t.Helper()
	const margin = 8
	nib := make([]byte, off+(n+1)/2)
	for i := range nib[off:] {
		if len(packed) > 0 {
			nib[off+i] = packed[i%len(packed)]
		}
	}
	nib = nib[off:]
	var backing [2][]float32
	var wrote [2]int
	for side, decode := range []func([]float32, []byte, float32, float32) int{decode4Ref, decode4} {
		backing[side] = make([]float32, margin+off+n+margin)
		for i := range backing[side] {
			backing[side][i] = sentinel
		}
		wrote[side] = decode(backing[side][margin+off:margin+off+n:margin+off+n], nib, gmin, scale)
	}
	if wrote[0] != wrote[1] || wrote[0] != n&^1 {
		t.Fatalf("n=%d off=%d: decode4 wrote %d elements, reference %d, want %d", n, off, wrote[1], wrote[0], n&^1)
	}
	for i := range backing[0] {
		if !sameBits(backing[0][i], backing[1][i]) {
			t.Fatalf("n=%d off=%d gmin=%v scale=%v: backing[%d] (slice starts at %d) = %v (%#08x), reference %v (%#08x)",
				n, off, gmin, scale, i, margin+off, backing[1][i], math.Float32bits(backing[1][i]), backing[0][i], math.Float32bits(backing[0][i]))
		}
	}
}

func TestDecode4MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	packed := make([]byte, 1024)
	for _, n := range decodeLengths() {
		for off := 0; off < 4; off++ {
			for mode := 0; mode < 3; mode++ {
				rng.Read(packed)
				// Finite fp16 metadata as a checkpoint carries it, one
				// awkward value, or two.
				gmin, scale := Float16(rng.Intn(0x7c00)).Float32(), Float16(rng.Intn(0x7c00)).Float32()
				if rng.Intn(2) == 0 {
					gmin = -gmin
				}
				if mode >= 1 {
					scale = awkwardMeta[rng.Intn(len(awkwardMeta))]
				}
				if mode == 2 {
					gmin = awkwardMeta[rng.Intn(len(awkwardMeta))]
				}
				checkDecode4(t, packed, n, off, gmin, scale)
			}
		}
	}
}

// Every nibble value lands in every lane and comes out as the generic
// per-element expression, not merely as what the table holds.
func TestDecode4EveryNibbleEveryLane(t *testing.T) {
	gmin, scale := Float16(0xb4cd).Float32(), Float16(0x211f).Float32()
	packed := make([]byte, 8)
	out := make([]float32, 16)
	for lane := 0; lane < 16; lane++ {
		for q := 0; q < 16; q++ {
			clear(packed)
			packed[lane/2] = byte(q) << (4 * (lane % 2))
			if got := decode4(out, packed, gmin, scale); got != 16 {
				t.Fatalf("decode4 wrote %d", got)
			}
			for i, v := range out {
				want := gmin // q = 0
				if i == lane {
					want = gmin + float32(float32(q)*scale)
				}
				if !sameBits(v, want) {
					t.Fatalf("nibble %d in lane %d: out[%d] = %v, want %v", q, lane, i, v, want)
				}
			}
		}
	}
}

// A packed run shorter than the output needs is refused by the bounds
// check in front of the assembly, not read past.
func TestDecode4ShortPackedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("decode4 read 32 elements out of 15 bytes")
		}
	}()
	decode4(make([]float32, 32), make([]byte, 15), 0, 1)
}

// FuzzDecode4 is the differential target: arbitrary packed bytes, any
// two float32 bit patterns as metadata, any length and start offset.
func FuzzDecode4(f *testing.F) {
	f.Add([]byte{0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe}, uint32(0xbf800000), uint32(0x3e000000), uint8(16), uint8(0))
	f.Add([]byte{0xff, 0x00, 0xa5}, uint32(0x7fc00000), uint32(0x7f800000), uint8(37), uint8(3))
	f.Add([]byte{0x0f}, uint32(0x00000001), uint32(0x80000001), uint8(255), uint8(1))
	f.Add([]byte{}, uint32(0), uint32(0), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, packed []byte, gmin, scale uint32, n, off uint8) {
		checkDecode4(t, packed, int(n), int(off%4), math.Float32frombits(gmin), math.Float32frombits(scale))
	})
}

// decodeGroups against a per-element oracle — Float16.Float32 and the
// generic expression, nothing shared with either body — and against its
// reference loop. Off amd64 decodeGroups is decodeGroupsRef and the
// second comparison passes trivially.

// decodeGroupsOracle decodes whole groups one element at a time.
func decodeGroupsOracle(dst []float32, nib, mins, scales []byte, gs int) {
	for i := range dst {
		gmin, scale := halfAt(mins, i/gs), halfAt(scales, i/gs)
		dst[i] = gmin + float32(float32(nib[i/2]>>(4*(i%2))&15)*scale)
	}
}

// checkDecodeGroups runs decodeGroups, decodeGroupsRef and the oracle
// over the same operands, each of which starts off bytes (or elements)
// into its backing array, and compares every decoded element and the
// sentinels on both sides of the output.
func checkDecodeGroups(t *testing.T, nib, mins, scales []byte, gs, groups, off int) {
	t.Helper()
	const margin = 8
	shift := func(b []byte) []byte { return append(make([]byte, off), b...)[off:] }
	nib, mins, scales = shift(nib), shift(mins), shift(scales)
	n := gs * groups
	var backing [3][]float32
	for side, decode := range []func([]float32, []byte, []byte, []byte, int){decodeGroupsOracle, decodeGroupsRef, decodeGroups} {
		backing[side] = make([]float32, margin+off+n+margin)
		for i := range backing[side] {
			backing[side][i] = sentinel
		}
		decode(backing[side][margin+off:margin+off+n:margin+off+n], nib, mins, scales, gs)
	}
	for side, name := range []string{1: "decodeGroupsRef", 2: "decodeGroups"} {
		if side == 0 {
			continue
		}
		for i := range backing[0] {
			if !sameBits(backing[0][i], backing[side][i]) {
				g := (i - margin - off) / gs
				t.Fatalf("gs=%d groups=%d off=%d: %s wrote backing[%d] (group %d: min %#04x scale %#04x) = %v (%#08x), oracle %v (%#08x)",
					gs, groups, off, name, i, g, mins[2*g:2*g+2], scales[2*g:2*g+2],
					backing[side][i], math.Float32bits(backing[side][i]), backing[0][i], math.Float32bits(backing[0][i]))
			}
		}
	}
}

// awkwardHalves are the finite halves a conversion gets wrong first:
// both zeros, the smallest and largest subnormals, the smallest normal,
// one, the largest finite value, and their negatives.
var awkwardHalves = []uint16{0x0000, 0x8000, 0x0001, 0x8001, 0x03ff, 0x83ff, 0x0400, 0x8400, 0x3c00, 0xbc00, 0x7bff, 0xfbff}

func TestDecode4GroupsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	le := func(h uint16) []byte { return []byte{byte(h), byte(h >> 8)} }
	for _, gs := range []int{2, 6, 16, 32, 48, 64, 128, 256} {
		for groups := 0; groups <= 5; groups++ {
			for off := 0; off < 4; off++ {
				for mode := 0; mode < 2; mode++ {
					nib := make([]byte, gs*groups/2)
					rng.Read(nib)
					var mins, scales []byte
					for g := 0; g < groups; g++ {
						lo, sc := uint16(rng.Intn(0x7c00))|uint16(rng.Intn(2))<<15, uint16(rng.Intn(0x7c00))
						if mode == 1 {
							lo, sc = awkwardHalves[rng.Intn(len(awkwardHalves))], awkwardHalves[rng.Intn(len(awkwardHalves))]
						}
						mins, scales = append(mins, le(lo)...), append(scales, le(sc)...)
					}
					checkDecodeGroups(t, nib, mins, scales, gs, groups, off)
				}
			}
		}
	}
}

// Every finite half, as a group minimum and as a group scale, widens to
// the bits Float16.Float32 gives it — under every nibble value, so a
// conversion that is off by an ulp shows in a product or a sum even where
// the other operand hides it.
func TestDecode4GroupsEveryFiniteHalf(t *testing.T) {
	var all, ones, nib []byte
	for h := 0; h < 1<<16; h++ {
		if !finite16(Float16(h)) {
			continue
		}
		all = append(all, byte(h), byte(h>>8))
		ones = append(ones, 0x00, 0x3c)                                   // 1.0
		nib = append(nib, 0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe) // 0..15
	}
	checkDecodeGroups(t, nib, all, ones, 16, len(all)/2, 0)
	checkDecodeGroups(t, nib, ones, all, 16, len(all)/2, 0)
	checkDecodeGroups(t, nib, all, all, 16, len(all)/2, 1)
}

// Operands shorter than the groups need are refused by the bounds checks
// in front of the assembly, not read past.
func TestDecode4GroupsShortOperandsPanic(t *testing.T) {
	for name, call := range map[string]func(){
		"packed": func() { decodeGroups(make([]float32, 128), make([]byte, 63), make([]byte, 4), make([]byte, 4), 64) },
		"mins":   func() { decodeGroups(make([]float32, 128), make([]byte, 64), make([]byte, 3), make([]byte, 4), 64) },
		"scales": func() { decodeGroups(make([]float32, 128), make([]byte, 64), make([]byte, 4), make([]byte, 3), 64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decodeGroups read two groups out of a short %s operand", name)
				}
			}()
			call()
		}()
	}
}

// axpyRows against its reference body and a per-element oracle
// (Float16.Float32, the generic decode expression and the accumulate
// chain, written out element by element), over every operand the
// assembly takes: group sizes that are and are not whole blocks, one to
// five groups a call, rows one to three calls' widths apart, metadata
// that includes both zeros, subnormal halves, negative minimums and
// ±65504, activations and running sums with NaN, Inf and subnormals.
// Off amd64 axpyRows is axpyRowsRef and the second comparison passes
// trivially.

// rows are the operands of one axpyRows call: four rows of groups*gs
// elements, each stride elements after the one before — four k-rows of a
// k x stride matrix — as nibbles and the two fp16 metadata arrays.
type rows struct {
	nib, mins, scales  []byte
	gs, groups, stride int
}

func (r rows) nibStride() int  { return r.stride / 2 }
func (r rows) metaStride() int { return 2 * r.stride / r.gs }

// newRows allocates the operands with every byte a row can reach, each
// array starting off bytes into its backing, the nibbles random and each
// half drawn by half.
func newRows(rng *rand.Rand, gs, groups, stride, off int, half func() uint16) rows {
	r := rows{gs: gs, groups: groups, stride: stride}
	shifted := func(n int) []byte { return make([]byte, off+n)[off:] }
	r.nib = shifted(3*r.nibStride() + groups*gs/2)
	rng.Read(r.nib)
	r.mins, r.scales = shifted(3*r.metaStride()+2*groups), shifted(3*r.metaStride()+2*groups)
	for i := 0; i < len(r.mins); i += 2 {
		binary.LittleEndian.PutUint16(r.mins[i:], half())
		binary.LittleEndian.PutUint16(r.scales[i:], half())
	}
	return r
}

// axpyRowsOracle adds the four rows' terms to every element of o one
// element at a time, with nothing shared with either body.
func axpyRowsOracle(o []float32, r rows, a [4]float32) {
	for j := range o {
		t := o[j]
		for k := range a {
			q := r.nib[k*r.nibStride()+j/2] >> (4 * (j % 2)) & 15
			meta := k*r.metaStride() + 2*(j/r.gs)
			gmin := Float16(binary.LittleEndian.Uint16(r.mins[meta:])).Float32()
			scale := Float16(binary.LittleEndian.Uint16(r.scales[meta:])).Float32()
			w := gmin + float32(float32(q)*scale)
			t += float32(a[k] * w)
		}
		o[j] = t
	}
}

// checkAxpyRows runs the oracle, axpyRowsRef and axpyRows from the same
// running sums o0, each into its own copy starting off elements into a
// sentinel-filled backing array, and compares the whole backings.
func checkAxpyRows(t *testing.T, r rows, a [4]float32, o0 []float32, off int) {
	t.Helper()
	const margin = 8
	n := r.gs * r.groups
	var backing [3][]float32
	for side := range backing {
		backing[side] = make([]float32, margin+off+n+margin)
		for i := range backing[side] {
			backing[side][i] = sentinel
		}
		o := backing[side][margin+off : margin+off+n : margin+off+n]
		copy(o, o0)
		switch side {
		case 0:
			axpyRowsOracle(o, r, a)
		case 1:
			axpyRowsRef(o, r.nib, r.mins, r.scales, r.gs, r.nibStride(), r.metaStride(), a[0], a[1], a[2], a[3])
		case 2:
			axpyRows(o, r.nib, r.mins, r.scales, r.gs, r.nibStride(), r.metaStride(), a[0], a[1], a[2], a[3])
		}
	}
	for side, name := range []string{1: "axpyRowsRef", 2: "axpyRows"} {
		if side == 0 {
			continue
		}
		for i := range backing[0] {
			if !sameBits(backing[0][i], backing[side][i]) {
				t.Fatalf("gs=%d groups=%d stride=%d off=%d a=%v: %s wrote backing[%d] (o starts at %d) = %v (%#08x), oracle %v (%#08x)",
					r.gs, r.groups, r.stride, off, a, name, i, margin+off,
					backing[side][i], math.Float32bits(backing[side][i]), backing[0][i], math.Float32bits(backing[0][i]))
			}
		}
	}
}

func TestAxpyRowsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	finiteHalf := func() uint16 { return uint16(rng.Intn(0x7c00)) | uint16(rng.Intn(2))<<15 }
	awkwardHalf := func() uint16 { return awkwardHalves[rng.Intn(len(awkwardHalves))] }
	value := func(awkward bool) float32 {
		if awkward {
			return awkwardMeta[rng.Intn(len(awkwardMeta))]
		}
		return float32(rng.NormFloat64())
	}
	for _, gs := range []int{2, 6, 16, 32, 48, 64, 128, 256} {
		for groups := 1; groups <= 5; groups++ {
			for tiles := 1; tiles <= 3; tiles++ {
				for mode := 0; mode < 3; mode++ {
					half := finiteHalf
					if mode == 2 {
						half = awkwardHalf
					}
					off := (gs + groups + tiles + mode) % 4
					r := newRows(rng, gs, groups, tiles*gs*groups, off, half)
					var a [4]float32
					for k := range a {
						a[k] = value(mode >= 1)
					}
					o := make([]float32, gs*groups)
					for i := range o {
						o[i] = value(mode >= 1 && rng.Intn(3) == 0)
					}
					checkAxpyRows(t, r, a, o, off)
				}
			}
		}
	}
}

// Every nibble value in every position of a 16-column block — each of the
// four lanes of each of the four vectors, in each of the four rows —
// comes out as the oracle's expression. Lane i multiplies q·16^i by
// scale·16^-i, so a mask, shift or lane scale that is off shows here.
func TestAxpyRowsEveryNibbleEveryLane(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	r := newRows(rng, 16, 1, 16, 0, func() uint16 { return uint16(rng.Intn(0x7c00)) | uint16(rng.Intn(2))<<15 })
	for row := 0; row < 4; row++ {
		var a [4]float32
		a[row] = 1
		for pos := 0; pos < 16; pos++ {
			for q := 0; q < 16; q++ {
				clear(r.nib)
				r.nib[row*r.nibStride()+pos/2] = byte(q) << (4 * (pos % 2))
				checkAxpyRows(t, r, a, make([]float32, 16), 0)
			}
		}
	}
}

// Every finite half, as a group minimum and as a group scale, in every
// row — under every nibble value in every lane — gives the oracle's
// bits: the in-register widening (HALF) and the lane scales hold for the
// whole fp16 range, subnormals included. One row's activation is one and
// the others zero, so that row's weights reach the sum unrounded.
func TestAxpyRowsEveryFiniteHalf(t *testing.T) {
	var all []uint16
	for h := 0; h < 1<<16; h++ {
		if finite16(Float16(h)) {
			all = append(all, uint16(h))
		}
	}
	groups := len(all)
	for _, c := range []struct{ mins, scales func(g int) uint16 }{
		{func(g int) uint16 { return all[g] }, func(int) uint16 { return 0x3c00 }},
		{func(int) uint16 { return 0x3c00 }, func(g int) uint16 { return all[g] }},
		{func(g int) uint16 { return all[g] }, func(g int) uint16 { return all[(g*7919)%groups] }},
	} {
		r := rows{gs: 16, groups: groups, stride: 16 * groups}
		r.nib = make([]byte, 4*8*groups)
		r.mins, r.scales = make([]byte, 4*2*groups), make([]byte, 4*2*groups)
		for row := 0; row < 4; row++ {
			for g := 0; g < groups; g++ {
				for b := 0; b < 8; b++ {
					// Nibbles 0..15 rotated by the group, so each value
					// meets each half in a different lane.
					lo, hi := (2*b+g+row)%16, (2*b+1+g+row)%16
					r.nib[row*r.nibStride()+8*g+b] = byte(lo | hi<<4)
				}
				binary.LittleEndian.PutUint16(r.mins[row*r.metaStride()+2*g:], c.mins(g))
				binary.LittleEndian.PutUint16(r.scales[row*r.metaStride()+2*g:], c.scales(g))
			}
		}
		for row := 0; row < 4; row++ {
			var a [4]float32
			a[row] = 1
			checkAxpyRows(t, r, a, make([]float32, 16*groups), 0)
		}
	}
}

// Operands shorter than four rows of the groups need — the fourth row's
// last byte of nibbles, minimums or scales missing — are refused by the
// bounds checks in front of the assembly, not read past.
func TestAxpyRowsShortOperandsPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	r := newRows(rng, 64, 2, 256, 0, func() uint16 { return 0x3c00 })
	o := make([]float32, 128)
	for name, call := range map[string]func(){
		"nibbles": func() {
			axpyRows(o, r.nib[:len(r.nib)-1], r.mins, r.scales, 64, r.nibStride(), r.metaStride(), 1, 1, 1, 1)
		},
		"mins": func() {
			axpyRows(o, r.nib, r.mins[:len(r.mins)-1], r.scales, 64, r.nibStride(), r.metaStride(), 1, 1, 1, 1)
		},
		"scales": func() {
			axpyRows(o, r.nib, r.mins, r.scales[:len(r.scales)-1], 64, r.nibStride(), r.metaStride(), 1, 1, 1, 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("axpyRows read four rows out of a short %s operand", name)
				}
			}()
			call()
		}()
	}
}

// FuzzAxpyRows is the differential target: arbitrary nibbles, metadata
// (any finite half: a Packed never carries another), activation and
// running-sum bit patterns, group size, group count, row stride and start
// offset.
func FuzzAxpyRows(f *testing.F) {
	f.Add([]byte{0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 0x00, 0x3c, 0x00, 0xbc}, uint8(2), uint8(1), uint8(1), uint8(0))
	f.Add([]byte{0xff, 0x7b, 0x01, 0x80, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0x7f}, uint8(3), uint8(2), uint8(2), uint8(3))
	f.Add([]byte{0x0f, 0xf0, 0xff, 0x03, 0x00, 0x84}, uint8(0), uint8(4), uint8(3), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(0), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, gsSel, groups, tiles, off uint8) {
		gs := []int{2, 16, 32, 64, 48, 6}[int(gsSel)%6]
		ng, nt := 1+int(groups)%4, 1+int(tiles)%3
		at := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			at++
			return data[(at-1)%len(data)]
		}
		half := func() uint16 {
			h := uint16(next()) | uint16(next())<<8
			if !finite16(Float16(h)) {
				h &^= 0x4000 // an all-ones exponent becomes a finite one
			}
			return h
		}
		bits := func() float32 {
			return math.Float32frombits(uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
		}
		r := rows{gs: gs, groups: ng, stride: nt * gs * ng}
		shifted := func(n int) []byte { return make([]byte, int(off%4)+n)[off%4:] }
		r.nib = shifted(3*r.nibStride() + ng*gs/2)
		for i := range r.nib {
			r.nib[i] = next()
		}
		r.mins, r.scales = shifted(3*r.metaStride()+2*ng), shifted(3*r.metaStride()+2*ng)
		for i := 0; i < len(r.mins); i += 2 {
			binary.LittleEndian.PutUint16(r.mins[i:], half())
			binary.LittleEndian.PutUint16(r.scales[i:], half())
		}
		a := [4]float32{bits(), bits(), bits(), bits()}
		o := make([]float32, gs*ng)
		for i := range o {
			o[i] = bits()
		}
		checkAxpyRows(t, r, a, o, int(off%4))
	})
}

// Packed.AxpyRows over a k x cols tensor stores what decoding the four
// rows with DecodeRange and adding their terms in order stores, for
// every group-aligned column range of every k-quad; and it refuses
// ranges that are not whole groups or run past the tensor.
func TestPackedAxpyRowsMatchesDecodeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, shape := range []struct{ k, cols, gs int }{{8, 384, 64}, {12, 192, 32}, {4, 96, 48}, {8, 12, 2}} {
		x := make([]float32, shape.k*shape.cols)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		qt, err := Quantize(x, Config{Bits: 4, GroupSize: shape.gs})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := qt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		p, ok, err := ViewPacked(blob)
		if !ok || err != nil {
			t.Fatalf("ViewPacked: ok=%v err=%v", ok, err)
		}
		for k := 0; k+4 <= shape.k; k += 4 {
			for c0 := 0; c0 < shape.cols; c0 += shape.gs {
				for c1 := c0 + shape.gs; c1 <= shape.cols; c1 += shape.gs {
					a := [4]float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
					want := make([]float32, c1-c0)
					for i := range want {
						want[i] = float32(rng.NormFloat64())
					}
					got := append([]float32(nil), want...)
					var w [4][]float32
					for r := range w {
						w[r] = make([]float32, c1-c0)
						p.DecodeRange(w[r], (k+r)*shape.cols+c0)
					}
					for i := range want {
						for r := range w {
							want[i] += float32(a[r] * w[r][i])
						}
					}
					p.AxpyRows(got, a[0], a[1], a[2], a[3], k*shape.cols+c0, shape.cols)
					for i := range want {
						if !sameBits(want[i], got[i]) {
							t.Fatalf("%dx%d gs=%d k=%d columns [%d,%d): got[%d] = %v, DecodeRange then add %v", shape.k, shape.cols, shape.gs, k, c0, c1, i, got[i], want[i])
						}
					}
				}
			}
		}
		gs, cols := shape.gs, shape.cols
		for name, call := range map[string]func(){
			"lo inside a group":       func() { p.AxpyRows(make([]float32, gs), 1, 1, 1, 1, 1, cols) },
			"stride inside a group":   func() { p.AxpyRows(make([]float32, gs), 1, 1, 1, 1, 0, cols+1) },
			"width inside a group":    func() { p.AxpyRows(make([]float32, gs+1), 1, 1, 1, 1, 0, cols) },
			"negative stride":         func() { p.AxpyRows(make([]float32, gs), 1, 1, 1, 1, 3*cols, -cols) },
			"fourth row past the end": func() { p.AxpyRows(make([]float32, gs), 1, 1, 1, 1, (shape.k-3)*cols, cols) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%dx%d gs=%d: AxpyRows accepted %s", shape.k, cols, gs, name)
					}
				}()
				call()
			}()
		}
	}
}
