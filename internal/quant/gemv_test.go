package quant

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The stacked GEMV: gemv over several activation rows at once, their
// output rows ldo apart, must store what one gemv call per row stores —
// raw bits, NaN payloads included, on the same body — and the values
// of the per-row twin gemvRef and of the per-element oracle. On AVX-512
// one gemvAVX512 call takes up to gemvRows rows and decodes each weight
// once for all of them; a row that reads another's activations, sums
// added into another row's registers, an output row stored at the
// wrong stride or a table shared where it must not be shows here. Off
// amd64 gemv is gemvRef and the comparisons pass trivially.

// stackedCase draws the operands of one stacked call: weight rows,
// nrows activation rows of r.k and nrows running-sum rows of r.width(),
// the activations and sums special with odds one in three.
func stackedCase(rng *rand.Rand, k, gs, groups, lo, nrows, off int) (r rows, x, o []float32) {
	r = newRows(rng, k, gs, groups, lo+2*gs*groups, lo, off, finiteHalfFrom(rng))
	value := func() float32 {
		if rng.Intn(3) == 0 {
			return specialValues[rng.Intn(len(specialValues))]
		}
		return float32(rng.NormFloat64())
	}
	x, o = make([]float32, nrows*k), make([]float32, nrows*r.width())
	for i := range x {
		x[i] = value()
	}
	for i := range o {
		o[i] = value()
	}
	return r, x, o
}

// checkStackedAgainstRows runs one stacked gemv call over o, its rows
// ldo apart with sentinels between them, and one gemv call per row over
// a copy, and demands the same raw bits everywhere.
func checkStackedAgainstRows(t *testing.T, r rows, x, o0 []float32, ldo int) {
	t.Helper()
	n, nrows := r.width(), len(x)/r.k
	span := (nrows-1)*ldo + n
	stacked, single := make([]float32, span), make([]float32, span)
	for i := range stacked {
		stacked[i], single[i] = sentinel, sentinel
	}
	for i := 0; i < nrows; i++ {
		copy(stacked[i*ldo:i*ldo+n], o0[i*n:(i+1)*n])
		copy(single[i*ldo:i*ldo+n], o0[i*n:(i+1)*n])
	}
	r.call(gemv, stacked, ldo, x)
	for i := 0; i < nrows; i++ {
		r.call(gemv, single[i*ldo:i*ldo+n], n, x[i*r.k:(i+1)*r.k])
	}
	for j := range stacked {
		if math.Float32bits(stacked[j]) != math.Float32bits(single[j]) {
			t.Fatalf("k=%d gs=%d groups=%d lo=%d rows=%d ldo=%d: o[%d] (row %d) = %#08x stacked, %#08x one row a call",
				r.k, r.gs, r.groups, r.lo, nrows, ldo, j, j/ldo, math.Float32bits(stacked[j]), math.Float32bits(single[j]))
		}
	}
}

func TestGemvStackedMatchesRows(t *testing.T) {
	eachAxpyBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(86))
		for nrows := 1; nrows <= 9; nrows++ {
			for _, gs := range []int{16, 32, 48, 64, 80, 128, 6} {
				for _, k := range []int{1, 3, 4, 5, 8, 9} {
					for groups := 1; groups <= 3; groups++ {
						lo := (nrows + k) % 2 * gs
						off := (nrows + gs + k + groups) % 4
						r, x, o := stackedCase(rng, k, gs, groups, lo, nrows, off)
						checkGemv(t, r, x, o, off)
						for _, gap := range []int{0, 3, 16} {
							checkStackedAgainstRows(t, r, x, o, r.width()+gap)
						}
					}
				}
			}
		}
		// The bench-ooc depths and widths, a decode step's row counts.
		for _, s := range []struct{ k, gs, groups, nrows int }{
			{384, 64, 6, 2}, {383, 64, 4, 5}, {1536, 64, 2, 8}, {384, 48, 4, 3}, {384, 128, 3, 4},
		} {
			r, x, o := stackedCase(rng, s.k, s.gs, s.groups, 0, s.nrows, 1)
			checkGemv(t, r, x, o, 1)
			checkStackedAgainstRows(t, r, x, o, 1536)
		}
	})
}

// FuzzGemv is the stacked differential target: arbitrary nibbles,
// metadata (any finite half), activation and running-sum bit patterns,
// group size, group count, depth, activation row count (one to nine),
// output row gap, chunk start and operand offset — through every body the
// host runs, against the oracle and the twin and against one call per
// row.
func FuzzGemv(f *testing.F) {
	f.Add([]byte{0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 0x00, 0x3c, 0x00, 0xbc}, uint8(3), uint8(1), uint8(4), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0xff, 0x7b, 0x01, 0x80, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0x7f}, uint8(1), uint8(2), uint8(7), uint8(4), uint8(5), uint8(1), uint8(3))
	f.Add([]byte{0x0f, 0xf0, 0xff, 0x03, 0x00, 0x84}, uint8(0), uint8(3), uint8(8), uint8(8), uint8(16), uint8(2), uint8(1))
	f.Add([]byte{0x21, 0x43, 0x65, 0x87, 0xa9, 0x3c, 0x00, 0x38, 0x01, 0xc0}, uint8(2), uint8(1), uint8(5), uint8(2), uint8(3), uint8(1), uint8(0))
	f.Add([]byte{}, uint8(2), uint8(0), uint8(0), uint8(2), uint8(1), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, gsSel, groups, depth, rowSel, gap, loSel, off uint8) {
		gs := []int{16, 32, 64, 48, 128, 6, 80}[int(gsSel)%7]
		ng, k, nrows, lo := 1+int(groups)%4, 1+int(depth)%9, 1+int(rowSel)%9, int(loSel)%3*gs
		at := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			at++
			return data[(at-1)%len(data)]
		}
		r := rows{k: k, gs: gs, groups: ng, stride: lo + 2*gs*ng, lo: lo}
		shifted := func(n int) []byte { return make([]byte, int(off%4)+n)[off%4:] }
		r.nib = shifted(r.nibLen())
		for i := range r.nib {
			r.nib[i] = next()
		}
		r.mins, r.scales = shifted(r.metaLen()), shifted(r.metaLen())
		for i := 0; i < len(r.mins); i += 2 {
			for _, meta := range [][]byte{r.mins, r.scales} {
				h := uint16(next()) | uint16(next())<<8
				if !finite16(Float16(h)) {
					h &^= 0x4000 // an all-ones exponent becomes a finite one
				}
				binary.LittleEndian.PutUint16(meta[i:], h)
			}
		}
		bits := func() float32 {
			return math.Float32frombits(uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
		}
		x, o := make([]float32, nrows*k), make([]float32, nrows*r.width())
		for i := range x {
			x[i] = bits()
		}
		for i := range o {
			o[i] = bits()
		}
		defer func() { wide512 = probed512 }()
		for _, body := range axpyBodies {
			if body.wide && !probed512 {
				continue
			}
			wide512 = body.wide
			checkGemv(t, r, x, o, int(off%4))
			checkStackedAgainstRows(t, r, x, o, r.width()+int(gap)%20)
		}
	})
}
