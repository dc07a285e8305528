package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The accumulate kernels against their reference bodies, where assembly
// goes wrong: lengths around every unroll boundary, operands that start
// anywhere in a vector, values whose handling differs between a right
// and a nearly-right instruction sequence, and the memory on both sides
// of every operand. Off amd64 axpy4 is axpy4Ref and these pass trivially;
// there the whole suite is the reference's test.

// kernelLengths is every length 0-70 (the 8-, 4- and 1-column loops in
// every combination) and the widest row the engine ships, one either side.
func kernelLengths() []int {
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1535, 1536, 1537)
}

// awkward are operands on which a reordered, fused, skipped or
// flushed-to-zero term changes the result.
var awkward = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39, // subnormals
	math.MaxFloat32, -math.MaxFloat32, 65504, 1 + 1.0/(1<<23), 1.0 / 3,
}

// fillKernel fills dst with Gaussians (mode 0), with a third of them
// replaced by awkward values (mode 1), or with awkward values only
// (mode 2).
func fillKernel(rng *rand.Rand, dst []float32, mode int) {
	for i := range dst {
		if mode == 2 || (mode == 1 && rng.Intn(3) == 0) {
			dst[i] = awkward[rng.Intn(len(awkward))]
		} else {
			dst[i] = float32(rng.NormFloat64())
		}
	}
}

// operand is a length-n slice that starts off elements into its backing
// array and has margin elements of a sentinel on either side.
type operand struct {
	backing []float32
	s       []float32
}

const margin = 8

func newOperand(n, off int) operand {
	backing := make([]float32, margin+off+n+margin)
	for i := range backing {
		backing[i] = -12345.5
	}
	return operand{backing, backing[margin+off : margin+off+n : margin+off+n]}
}

// randOperand is newOperand filled by fillKernel.
func randOperand(rng *rand.Rand, n, off, mode int) operand {
	o := newOperand(n, off)
	fillKernel(rng, o.s, mode)
	return o
}

func (o operand) clone() operand {
	backing := append([]float32(nil), o.backing...)
	lo := len(o.backing) - margin - len(o.s)
	return operand{backing, backing[lo : lo+len(o.s) : lo+len(o.s)]}
}

// assertSameBacking compares whole backing arrays, so a store one element
// before or past the slice shows up as a changed sentinel.
func assertSameBacking(t *testing.T, name string, want, got operand) {
	t.Helper()
	for i := range want.backing {
		if !sameBits(want.backing[i], got.backing[i]) {
			t.Fatalf("%s: backing[%d] (slice starts at %d, len %d) = %v (%#08x), reference %v (%#08x)", name, i,
				len(want.backing)-margin-len(want.s), len(want.s),
				got.backing[i], math.Float32bits(got.backing[i]), want.backing[i], math.Float32bits(want.backing[i]))
		}
	}
}

func TestAxpy4MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range kernelLengths() {
		for off := 0; off < 4; off++ {
			for mode := 0; mode < 3; mode++ {
				// o is pre-filled; each b starts at its own offset.
				o := randOperand(rng, n, off, mode)
				var b [4]operand
				for k := range b {
					b[k] = randOperand(rng, n, (off+k+1)%4, mode)
				}
				var a [4]float32
				fillKernel(rng, a[:], mode)
				want, bWant := o.clone(), b
				for k := range b {
					bWant[k] = b[k].clone()
				}
				axpy4Ref(want.s, a[0], a[1], a[2], a[3], bWant[0].s, bWant[1].s, bWant[2].s, bWant[3].s)
				axpy4(o.s, a[0], a[1], a[2], a[3], b[0].s, b[1].s, b[2].s, b[3].s)
				assertSameBacking(t, "o", want, o)
				for k := range b {
					assertSameBacking(t, "b", bWant[k], b[k])
				}
			}
		}
	}
}

// The SSE2 two-row body (the Go twin off amd64) against the reference.
func TestAxpy4x2MatchesRef(t *testing.T) {
	t.Run("sse2", func(t *testing.T) {
		rng := rand.New(rand.NewSource(62))
		for _, n := range kernelLengths() {
			for off := 0; off < 4; off++ {
				for mode := 0; mode < 3; mode++ {
					o0, o1 := randOperand(rng, n, off, mode), randOperand(rng, n, (off+2)%4, mode)
					var b [4]operand
					for k := range b {
						b[k] = randOperand(rng, n, (off+k+1)%4, mode)
					}
					var a0, a1 [4]float32
					fillKernel(rng, a0[:], mode)
					fillKernel(rng, a1[:], mode)
					want0, want1, bWant := o0.clone(), o1.clone(), b
					for k := range b {
						bWant[k] = b[k].clone()
					}
					axpy4x2Ref(want0.s, want1.s, a0[:], a1[:], bWant[0].s, bWant[1].s, bWant[2].s, bWant[3].s)
					axpy4x2(o0.s, o1.s, a0[:], a1[:], b[0].s, b[1].s, b[2].s, b[3].s)
					assertSameBacking(t, "o0", want0, o0)
					assertSameBacking(t, "o1", want1, o1)
					for k := range b {
						assertSameBacking(t, "b", bWant[k], b[k])
					}
				}
			}
		}
	})
}

// assertSamePayload is assertSameBacking without the NaN leniency: every
// bit of every element, payload and quiet bit included.
func assertSamePayload(t *testing.T, name string, want, got operand) {
	t.Helper()
	for i := range want.backing {
		if w, g := math.Float32bits(want.backing[i]), math.Float32bits(got.backing[i]); w != g {
			t.Fatalf("%s: backing[%d] = %#08x, want %#08x", name, i, g, w)
		}
	}
}

// Short operands are refused by the bounds checks in front of the
// assembly, not read past.
func TestAxpy4ShortOperandPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	o, b, short := make([]float32, 9), make([]float32, 9), make([]float32, 8)
	mustPanic("axpy4 short b3", func() { axpy4(o, 1, 2, 3, 4, b, b, b, short) })
	mustPanic("axpy4x2 short o1", func() { axpy4x2(o, short, b[:4], b[:4], b, b, b, b) })
	mustPanic("axpy4x2 short a1", func() { axpy4x2(o, o, b[:4], b[:3], b, b, b, b) })
	mustPanic("axpy4x2 short b0", func() { axpy4x2(o, o, b[:4], b[:4], short, b, b, b) })
	tile := make([]float32, 5*16+16)
	mustPanic("tile short o", func() { tile6x16(tile[1:], 16, tile, 16, tile, 16, 1) })
	mustPanic("tile short a", func() { tile6x16(tile, 16, tile[:5*16+3], 16, tile, 16, 4) })
	mustPanic("tile short b", func() { tile6x16(tile, 16, tile, 16, tile[:3*16+15], 16, 4) })
	mustPanic("tile overlapping rows", func() { tile6x16(tile, 15, tile, 16, tile, 16, 4) })
	wide := make([]float32, 5*32+32)
	mustPanic("tile6x32 short o", func() { tile6x32(wide[1:], 32, wide, 32, wide, 32, 1) })
	mustPanic("tile6x32 short a", func() { tile6x32(wide, 32, wide[:5*32+3], 32, wide, 32, 4) })
	mustPanic("tile6x32 short b", func() { tile6x32(wide, 32, wide, 32, wide[:3*32+31], 32, 4) })
	mustPanic("tile6x32 overlapping rows", func() { tile6x32(wide, 31, wide, 32, wide, 32, 4) })
}

// floatsFromBytes reinterprets data as little-endian float32 bit
// patterns — every NaN payload, subnormal and infinity is reachable —
// cycling when data runs out.
func floatsFromBytes(data []byte, at *int, dst []float32) {
	for i := range dst {
		var w [4]byte
		for j := range w {
			if len(data) > 0 {
				w[j] = data[*at%len(data)]
				*at++
			}
		}
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
	}
}

// FuzzAxpy4 is the differential target: arbitrary bit patterns, length
// and start offset through axpy4 and the two-row body against their
// references.
func FuzzAxpy4(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64}, uint8(9), uint8(1))
	f.Add([]byte{0, 0, 192, 127, 0, 0, 128, 127, 0, 0, 128, 255, 1, 0, 0, 0, 0, 0, 0, 128}, uint8(23), uint8(3))
	f.Add([]byte{255, 255, 127, 127, 255, 255, 127, 255, 0, 0, 128, 0}, uint8(70), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n, off uint8) {
		at := 0
		mk := func(shift int) operand {
			o := newOperand(int(n), (int(off)+shift)%4)
			floatsFromBytes(data, &at, o.s)
			return o
		}
		o0, o1 := mk(0), mk(2)
		b := [4]operand{mk(1), mk(2), mk(3), mk(0)}
		var a0, a1 [4]float32
		floatsFromBytes(data, &at, a0[:])
		floatsFromBytes(data, &at, a1[:])

		want, got := o0.clone(), o0.clone()
		axpy4Ref(want.s, a0[0], a0[1], a0[2], a0[3], b[0].s, b[1].s, b[2].s, b[3].s)
		axpy4(got.s, a0[0], a0[1], a0[2], a0[3], b[0].s, b[1].s, b[2].s, b[3].s)
		assertSameBacking(t, "axpy4", want, got)

		want1, got0, got1 := o1.clone(), o0.clone(), o1.clone()
		axpy4x2Ref(o0.clone().s, want1.s, a0[:], a1[:], b[0].s, b[1].s, b[2].s, b[3].s)
		axpy4x2(got0.s, got1.s, a0[:], a1[:], b[0].s, b[1].s, b[2].s, b[3].s)
		assertSameBacking(t, "axpy4x2 row 0", want, got0)
		assertSameBacking(t, "axpy4x2 row 1", want1, got1)
	})
}
