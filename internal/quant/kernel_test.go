package quant

import (
	"fmt"
	"math/rand"
	"testing"

	"helmsim/internal/parallel"
)

// dequantRef is the scalar per-element decode the table kernel replaced,
// kept as the oracle: whatever path dequantGroups takes must store the
// bits this loop stores.
func dequantRef(t *Tensor) []float32 {
	out := make([]float32, t.n)
	for g := range t.mins {
		lo := g * t.cfg.GroupSize
		hi := lo + t.cfg.GroupSize
		if hi > t.n {
			hi = t.n
		}
		gmin := t.mins[g].Float32()
		scale := t.scales[g].Float32()
		for i := lo; i < hi; i++ {
			out[i] = gmin + float32(float32(t.getQ(i))*scale) // converted: no FMA on any GOARCH
		}
	}
	return out
}

// The decode is bit-identical to the scalar oracle on every path: the
// 4-bit table kernel (even group sizes, word-wide body, byte-wide group
// tail, odd last element left to the generic loop) and the generic loop
// itself (2-/8-bit, odd group sizes), serial and tiled over workers.
func TestDequantizeMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, bits := range []int{2, 4, 8} {
		for _, gs := range []int{1, 2, 3, 6, 64, 100, 128} {
			for _, n := range []int{0, 1, 2, gs - 1, gs, gs + 1, 2*gs + 15, 3*gs + 2, 5*gs + gs/2 + 1, 40000} {
				if n < 0 {
					continue
				}
				x := make([]float32, n)
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				tt, err := Quantize(x, Config{Bits: bits, GroupSize: gs})
				if err != nil {
					t.Fatal(err)
				}
				want := dequantRef(tt)
				for _, par := range []int{1, 3} {
					prev := parallel.Set(par)
					got := tt.Dequantize()
					parallel.Set(prev)
					assertIdentical(t, fmt.Sprintf("bits=%d gs=%d n=%d par=%d", bits, gs, n, par), want, got)
				}
			}
		}
	}
}

// Hostile metadata (subnormal and huge finite halves, negative scales,
// and the Inf/NaN an overflowing group range can produce) still decodes
// to the oracle's bits: the table holds the generic expression's own
// results, whatever they are — 0*Inf included.
func TestDequantizeTableExtremeMetadata(t *testing.T) {
	x := make([]float32, 200)
	for i := range x {
		x[i] = float32(i%16) / 15
	}
	tt, err := Quantize(x, Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, meta := range [][2]Float16{{0x0001, 0x0001}, {0x7bff, 0x7bff}, {0xfbff, 0x7bff}, {0x3c00, 0xbc00}, {0x8000, 0x0000}, {0x3c00, 0x7c00}, {0xfc00, 0x7e00}} {
		for g := range tt.mins {
			tt.mins[g], tt.scales[g] = meta[0], meta[1]
		}
		assertIdentical(t, "extreme metadata", dequantRef(tt), tt.Dequantize())
	}
}
