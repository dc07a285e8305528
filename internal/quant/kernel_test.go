package quant

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"helmsim/internal/parallel"
)

// dequantRef is the scalar per-element decode the table kernel replaced,
// kept as the oracle: it reads a MarshalBinary blob field by field —
// element i is nibble i of the packed bytes, low nibble first, and
// decodes to gmin + q*scale of its group — and whatever path a decode
// takes must store the bits this loop stores. It trusts the blob's
// header and length.
func dequantRef(blob []byte) []float32 {
	le := binary.LittleEndian
	gs, n := int(le.Uint32(blob[8:])), int(le.Uint64(blob[12:]))
	groups := (n + gs - 1) / gs
	nib := blob[20 : 20+(n+1)/2]
	mins := blob[20+(n+1)/2:]
	scales := mins[2*groups:]
	out := make([]float32, n)
	for i := range out {
		g := i / gs
		gmin := Float16(le.Uint16(mins[2*g:])).Float32()
		scale := Float16(le.Uint16(scales[2*g:])).Float32()
		q := nib[i/2] >> (4 * (i & 1)) & 15
		out[i] = gmin + float32(float32(q)*scale) // converted: no FMA on any GOARCH
	}
	return out
}

// The decode is bit-identical to the scalar oracle on every path: the
// block kernel (whole 16-element blocks), the table tail (group sizes
// that are not whole blocks, byte-wide group tails) and the odd last
// element, serial and tiled over workers.
func TestDequantizeMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, gs := range []int{2, 6, 64, 100, 128} {
		for _, n := range []int{0, 1, 2, gs - 1, gs, gs + 1, 2*gs + 15, 3*gs + 2, 5*gs + gs/2 + 1, 40000} {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			tt, err := Quantize(x, Config{GroupSize: gs})
			if err != nil {
				t.Fatal(err)
			}
			want := dequantRef(tt.blob)
			for _, par := range []int{1, 3} {
				prev := parallel.Set(par)
				got := tt.Dequantize()
				parallel.Set(prev)
				assertIdentical(t, fmt.Sprintf("gs=%d n=%d par=%d", gs, n, par), want, got)
			}
		}
	}
}

// Hostile metadata (subnormal and huge finite halves, negative scales,
// zeros of either sign) still decodes to the oracle's bits: the table
// holds the generic expression's own results, whatever they are. Inf and
// NaN halves cannot reach a decode: ViewPacked refuses them, and
// Quantize refuses the group ranges that would produce them.
func TestDequantizeTableExtremeMetadata(t *testing.T) {
	x := make([]float32, 200)
	for i := range x {
		x[i] = float32(i%16) / 15
	}
	tt, err := Quantize(x, Default())
	if err != nil {
		t.Fatal(err)
	}
	groups := len(tt.p.meta) / 4
	for _, meta := range [][2]Float16{{0x0001, 0x0001}, {0x7bff, 0x7bff}, {0xfbff, 0x7bff}, {0x3c00, 0xbc00}, {0x8000, 0x0000}, {0x8000, 0x8000}} {
		for g := 0; g < groups; g++ {
			binary.LittleEndian.PutUint16(tt.p.meta[2*g:], uint16(meta[0]))
			binary.LittleEndian.PutUint16(tt.p.meta[2*(groups+g):], uint16(meta[1]))
		}
		assertIdentical(t, "extreme metadata", dequantRef(tt.blob), tt.Dequantize())
	}
}
