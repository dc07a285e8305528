package quant

import (
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
