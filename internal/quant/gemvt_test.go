package quant

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// gemvT — the transposed GEMV that multiplies activation rows by sixteen
// table rows at once — against its Go twin gemvTRef and a per-element
// oracle (Float16.Float32, the generic decode expression and dotFrom's
// chain, written out element by element): group sizes the AVX-512 body
// takes (multiples of 8) and two it leaves to the twin (2 and 6), hidden
// sizes 16 to 640, one to nine activation rows (the body takes eight a
// call), blocks at the start, inside and at the end of the table,
// output rows wider than sixteen with sentinels between them, every
// nibble in every lane, every finite half, NaN/Inf/subnormal/−0
// activations and sums. Each test runs with wide512 on and off (the
// avx512 and twin subtests). Off amd64 gemvT is gemvTRef.

// table is a packed token table of n rows of k elements in groups of gs:
// its nibbles and its metadata block (every minimum, then every scale).
type table struct {
	nib, meta []byte
	n, k, gs  int
}

func (tb table) groups() int { return tb.n * tb.k / tb.gs }

// newTable allocates a table whose arrays start off bytes into their
// backing, the nibbles random and every half drawn by half.
func newTable(rng *rand.Rand, n, k, gs, off int, half func() uint16) table {
	tb := table{n: n, k: k, gs: gs}
	tb.nib = make([]byte, off+n*k/2)[off:]
	rng.Read(tb.nib)
	tb.meta = make([]byte, off+4*tb.groups())[off:]
	for i := 0; i < len(tb.meta); i += 2 {
		binary.LittleEndian.PutUint16(tb.meta[i:], half())
	}
	return tb
}

// call runs body — gemvT or gemvTRef — over table rows j..j+15.
func (tb table) call(body func(o []float32, ldo int, x []float32, nib, meta []byte, g0, gs, k int), o []float32, ldo int, x []float32, j int) {
	body(o, ldo, x, tb.nib[j*tb.k/2:], tb.meta, j*tb.k/tb.gs, tb.gs, tb.k)
}

// gemvTOracle adds every term to every output element one element at a
// time, with nothing shared with either body.
func gemvTOracle(o []float32, ldo int, x []float32, tb table, j int) {
	half := len(tb.meta) / 2
	for r := 0; r < len(x)/tb.k; r++ {
		for t := 0; t < GemvTRows; t++ {
			s := o[r*ldo+t]
			for c := 0; c < tb.k; c++ {
				e := (j+t)*tb.k + c
				q := tb.nib[e/2] >> (4 * (e % 2)) & 15
				g := e / tb.gs
				gmin := Float16(binary.LittleEndian.Uint16(tb.meta[2*g:])).Float32()
				scale := Float16(binary.LittleEndian.Uint16(tb.meta[half+2*g:])).Float32()
				w := gmin + float32(float32(q)*scale)
				s += float32(x[r*tb.k+c] * w)
			}
			o[r*ldo+t] = s
		}
	}
}

// checkGemvT runs the oracle, gemvTRef and gemvT from the same sums o0
// (rows of ldo elements, sixteen of each row read) over table rows
// j..j+15, each into its own copy starting off elements into a
// sentinel-filled backing array, and compares the whole backings: the
// sums, the elements between output rows and the margins.
func checkGemvT(t *testing.T, tb table, x, o0 []float32, ldo, j, off int) {
	t.Helper()
	const margin = 8
	rows := len(x) / tb.k
	n := (rows-1)*ldo + GemvTRows
	var backing [3][]float32
	for side := range backing {
		backing[side] = make([]float32, margin+off+n+margin)
		for i := range backing[side] {
			backing[side][i] = sentinel
		}
		o := backing[side][margin+off : margin+off+n : margin+off+n]
		for r := 0; r < rows; r++ {
			copy(o[r*ldo:r*ldo+GemvTRows], o0[r*GemvTRows:])
		}
		switch side {
		case 0:
			gemvTOracle(o, ldo, x, tb, j)
		case 1:
			tb.call(gemvTRef, o, ldo, x, j)
		case 2:
			tb.call(gemvT, o, ldo, x, j)
		}
	}
	for side, name := range []string{1: "gemvTRef", 2: "gemvT"} {
		if side == 0 {
			continue
		}
		for i := range backing[0] {
			if !sameBits(backing[0][i], backing[side][i]) {
				t.Fatalf("%d table rows of %d, gs=%d, rows %d.., %d activation rows, ldo=%d off=%d: %s wrote backing[%d] (o starts at %d) = %v (%#08x), oracle %v (%#08x)",
					tb.n, tb.k, tb.gs, j, rows, ldo, off, name, i, margin+off,
					backing[side][i], math.Float32bits(backing[side][i]), backing[0][i], math.Float32bits(backing[0][i]))
			}
		}
	}
}

// gemvTBodies are twin (gemvTRef, wide512 off) and avx512 (gemvTAVX512).
var gemvTBodies = []axpyBody{{"twin", false}, {"avx512", true}}

func TestGemvTMatchesRef(t *testing.T) {
	eachBody(t, gemvTBodies, func(t *testing.T) {
		rng := rand.New(rand.NewSource(81))
		finiteHalf := finiteHalfFrom(rng)
		awkwardHalf := func() uint16 { return awkwardHalves[rng.Intn(len(awkwardHalves))] }
		// mode 0: finite halves and ordinary values; 1: special
		// activations and sums; 2: awkward halves too.
		value := func(mode, odds int) float32 {
			if mode >= 1 && rng.Intn(odds) == 0 {
				return specialValues[rng.Intn(len(specialValues))]
			}
			return float32(rng.NormFloat64())
		}
		round := 0
		for _, gs := range []int{8, 16, 32, 64, 128, 2, 6} {
			for _, k := range []int{16, 24, 48, 96, 128, 192, 384, 640} {
				if k%gs != 0 {
					continue
				}
				for mode := 0; mode < 3; mode++ {
					round++
					half := finiteHalf
					if mode == 2 {
						half = awkwardHalf
					}
					n := []int{16, 33, 48}[round%3]
					j := []int{0, 17, 32}[round%3]
					rows := 1 + round%9
					off := round % 4
					ldo := GemvTRows + round%3*5
					tb := newTable(rng, n, k, gs, off, half)
					x := make([]float32, rows*k)
					for i := range x {
						x[i] = value(mode, max(2, k/4))
					}
					o := make([]float32, rows*GemvTRows)
					for i := range o {
						o[i] = value(mode, 3)
					}
					checkGemvT(t, tb, x, o, ldo, j, off)
				}
			}
		}
		// One to nine activation rows at the bench-ooc width.
		for rows := 1; rows <= 9; rows++ {
			tb := newTable(rng, 32, 384, 64, rows%4, finiteHalf)
			x := make([]float32, rows*384)
			for i := range x {
				x[i] = value(1, 96)
			}
			o := make([]float32, rows*GemvTRows)
			checkGemvT(t, tb, x, o, 2048, 16, rows%4)
		}
	})
}

// Every nibble value in every position of two eight-element chunks, in
// every one of the sixteen table rows, comes out as the oracle's
// expression: a lane that reads another row's nibbles, a shift that is
// off by a nibble or a chunk that starts in the wrong place shows here.
func TestGemvTEveryNibbleEveryLane(t *testing.T) {
	eachBody(t, gemvTBodies, func(t *testing.T) {
		rng := rand.New(rand.NewSource(82))
		tb := newTable(rng, GemvTRows, 16, 8, 0, finiteHalfFrom(rng))
		o := make([]float32, GemvTRows)
		for row := 0; row < GemvTRows; row++ {
			for pos := 0; pos < tb.k; pos++ {
				x := make([]float32, tb.k)
				x[pos] = 1
				for q := 0; q < 16; q++ {
					clear(tb.nib)
					e := row*tb.k + pos
					tb.nib[e/2] = byte(q) << (4 * (e % 2))
					checkGemvT(t, tb, x, o, GemvTRows, 0, 0)
				}
			}
		}
	})
}

// Every finite half, as a group minimum and as a group scale, in every
// lane — under every nibble value — gives the oracle's bits: the
// gathers keep the right word and the widening holds for the whole fp16
// range, subnormals included. The activation is one at a single k and
// zero elsewhere, so each weight reaches the sum unrounded.
func TestGemvTEveryFiniteHalf(t *testing.T) {
	eachBody(t, gemvTBodies, func(t *testing.T) {
		var all []uint16
		for h := 0; h < 1<<16; h++ {
			if finite16(Float16(h)) {
				all = append(all, uint16(h))
			}
		}
		// One group a table row: row g carries half g.
		const k, gs = 8, 8
		n := len(all) / GemvTRows * GemvTRows
		for _, c := range []struct{ mins, scales func(g int) uint16 }{
			{func(g int) uint16 { return all[g] }, func(int) uint16 { return 0x3c00 }},
			{func(int) uint16 { return 0x3c00 }, func(g int) uint16 { return all[g] }},
			{func(g int) uint16 { return all[g] }, func(g int) uint16 { return all[(g*7919)%len(all)] }},
		} {
			tb := table{n: n, k: k, gs: gs, nib: make([]byte, n*k/2), meta: make([]byte, 4*n)}
			for g := 0; g < n; g++ {
				for b := 0; b < k/2; b++ {
					tb.nib[g*k/2+b] = byte((2*b+g)%16 | (2*b+1+g)%16<<4)
				}
				binary.LittleEndian.PutUint16(tb.meta[2*g:], c.mins(g))
				binary.LittleEndian.PutUint16(tb.meta[2*n+2*g:], c.scales(g))
			}
			for pos := 0; pos < k; pos++ {
				x := make([]float32, k)
				x[pos] = 1
				for j := 0; j < n; j += GemvTRows {
					checkGemvT(t, tb, x, make([]float32, GemvTRows), GemvTRows, j, 0)
				}
			}
		}
	})
}

// Operands shorter than the sixteen rows need — the last row's last
// nibble byte or scale missing, or the output one element short — are
// refused in front of the assembly, not read past.
func TestGemvTShortOperandsPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	tb := newTable(rng, 16, 64, 64, 0, func() uint16 { return 0x3c00 })
	x, o := make([]float32, 2*64), make([]float32, 2*GemvTRows)
	for name, call := range map[string]func(){
		"nibbles": func() { gemvT(o, GemvTRows, x, tb.nib[:len(tb.nib)-1], tb.meta, 0, 64, 64) },
		// A block one (minimum, scale) pair short: the last row's scale
		// would lie past its end.
		"metadata": func() { gemvT(o, GemvTRows, x, tb.nib, tb.meta[:len(tb.meta)-4], 0, 64, 64) },
		"output":   func() { gemvT(o[:len(o)-1], GemvTRows, x, tb.nib, tb.meta, 0, 64, 64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("gemvT read rows out of %s", name)
				}
			}()
			call()
		}()
	}
}

// Packed.GemvT over a table stores what decoding each row with
// DecodeRange and continuing dotFrom's chain over it stores, for every
// block of sixteen rows and one to three activation rows; and it refuses
// rows that are not whole groups, blocks that run past the table,
// activations that are not whole rows and overlapping output rows.
func TestPackedGemvTMatchesDecodeRange(t *testing.T) {
	defer func() { wide512 = probed512 }()
	rng := rand.New(rand.NewSource(84))
	for _, shape := range []struct{ n, k, gs int }{{16, 384, 64}, {48, 64, 8}, {33, 96, 32}, {32, 12, 2}, {17, 128, 128}} {
		p, err := ViewPacked(blobOf(t, rng, shape.n*shape.k, shape.gs))
		if err != nil {
			t.Fatal(err)
		}
		dec := make([]float32, shape.k)
		for _, wide := range []bool{false, probed512} {
			wide512 = wide
			for rows := 1; rows <= 3; rows++ {
				for j := 0; j+GemvTRows <= shape.n; j++ {
					x := make([]float32, rows*shape.k)
					for i := range x {
						x[i] = float32(rng.NormFloat64())
					}
					ldo := GemvTRows + 3
					want := make([]float32, (rows-1)*ldo+GemvTRows)
					for i := range want {
						want[i] = float32(rng.NormFloat64())
					}
					got := append([]float32(nil), want...)
					for r := 0; r < rows; r++ {
						for tr := 0; tr < GemvTRows; tr++ {
							p.DecodeRange(dec, (j+tr)*shape.k)
							s := want[r*ldo+tr]
							for c, v := range dec {
								s += float32(x[r*shape.k+c] * v)
							}
							want[r*ldo+tr] = s
						}
					}
					p.GemvT(got, ldo, x, shape.k, j)
					for i := range want {
						if !sameBits(want[i], got[i]) {
							t.Fatalf("%dx%d gs=%d wide=%v rows=%d j=%d: got[%d] = %v, DecodeRange then dot %v",
								shape.n, shape.k, shape.gs, wide, rows, j, i, got[i], want[i])
						}
					}
				}
			}
		}
		n, k, gs := shape.n, shape.k, shape.gs
		o, x := make([]float32, 2*GemvTRows), make([]float32, 2*k)
		for name, call := range map[string]func(){
			"rows inside a group":       func() { p.GemvT(o, GemvTRows, x[:k-1], k-1, 0) },
			"activations not whole":     func() { p.GemvT(o, GemvTRows, x[:k+1], k, 0) },
			"block past the end":        func() { p.GemvT(o, GemvTRows, x[:k], k, n-GemvTRows+1) },
			"negative block":            func() { p.GemvT(o, GemvTRows, x[:k], k, -1) },
			"overlapping output rows":   func() { p.GemvT(o, GemvTRows-1, x, k, 0) },
			"no elements in a row":      func() { p.GemvT(o, GemvTRows, x[:0], 0, 0) },
			"group-sized rows past end": func() { p.GemvT(o, GemvTRows, x[:gs], gs, n*k/gs-GemvTRows+1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%dx%d gs=%d: GemvT accepted %s", n, k, gs, name)
					}
				}()
				call()
			}()
		}
	}
}

// blobOf quantizes n Gaussian values in groups of gs and returns the
// serialized tensor.
func blobOf(t testing.TB, rng *rand.Rand, n, gs int) []byte {
	t.Helper()
	w := make([]float32, n)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	qt, err := Quantize(w, Config{GroupSize: gs})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := qt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// FuzzGemvT is the differential target: arbitrary nibbles, metadata (any
// finite half: a Packed never carries another), activation and sum bit
// patterns, group size, row length, table size, block start, activation
// row count and operand offset — through every body the host runs.
func FuzzGemvT(f *testing.F) {
	f.Add([]byte{0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 0x00, 0x3c, 0x00, 0xbc}, uint8(0), uint8(1), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add([]byte{0xff, 0x7b, 0x01, 0x80, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0x7f}, uint8(3), uint8(2), uint8(1), uint8(1), uint8(8), uint8(1))
	f.Add([]byte{0x0f, 0xf0, 0xff, 0x03, 0x00, 0x84}, uint8(5), uint8(4), uint8(2), uint8(2), uint8(4), uint8(2))
	f.Add([]byte{}, uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, gsSel, groupsSel, extra, jSel, rowSel, off uint8) {
		gs := []int{8, 16, 32, 64, 128, 2, 6, 24}[int(gsSel)%8]
		k := gs * (1 + int(groupsSel)%6)
		n := GemvTRows + int(extra)%20
		j := int(jSel) % (n - GemvTRows + 1)
		rows := 1 + int(rowSel)%9
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
		o4 := int(off % 4)
		tb := table{n: n, k: k, gs: gs}
		tb.nib = make([]byte, o4+n*k/2)[o4:]
		for i := range tb.nib {
			tb.nib[i] = next()
		}
		tb.meta = make([]byte, o4+4*tb.groups())[o4:]
		for i := 0; i < len(tb.meta); i += 2 {
			binary.LittleEndian.PutUint16(tb.meta[i:], half())
		}
		x := make([]float32, rows*k)
		for i := range x {
			x[i] = bits()
		}
		o := make([]float32, rows*GemvTRows)
		for i := range o {
			o[i] = bits()
		}
		defer func() { wide512 = probed512 }()
		for _, body := range gemvTBodies {
			if body.wide && !probed512 {
				continue
			}
			wide512 = body.wide
			checkGemvT(t, tb, x, o, GemvTRows+int(off%3), j, o4)
		}
	})
}
