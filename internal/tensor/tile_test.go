package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The tall GEMM's register tiles (tile6x16 on AVX, tile6x32 on AVX-512)
// against their Go twin and against the SSE2 two-row path they replace,
// and MatMulInto with the tiles on against the same call with them off
// — each tile body a subtest. Off amd64, or on a host without the
// body's level, the tile is never taken and its subtest skips.

// probedAVX and probed512 are the CPU probe's answers, kept because the
// tests switch wideAccumulate and wide512.
var probedAVX, probed512 = wideAccumulate, wide512

// tileBody is one register tile: the columns it covers and whether the
// host runs it.
type tileBody struct {
	name  string
	width int
	run   func(o []float32, ldo int, a []float32, lda int, b []float32, ldb, k int)
	host  bool
	skip  string
}

func tileBodies() []tileBody {
	return []tileBody{
		{"avx", 16, tile6x16, probedAVX, "no AVX here (CPUID.1:ECX OSXSAVE/AVX or XCR0 YMM state missing, or GOARCH is not amd64): matMulTile never runs the 6x16 tile"},
		{"avx512", 32, tile6x32, probed512, "no AVX-512 here (CPUID.7:EBX AVX2/F/BW/VL or XCR0 ZMM state missing, or GOARCH is not amd64): matMulTile never runs the 6x32 tile"},
	}
}

// eachTile runs f once per tile body as a subtest named after it, which
// skips with the reason where the host lacks the body's level. In f
// matMulTile takes that body and no wider one.
func eachTile(t *testing.T, f func(t *testing.T, tb tileBody)) {
	defer func() { wideAccumulate, wide512 = probedAVX, probed512 }()
	for _, tb := range tileBodies() {
		t.Run(tb.name, func(t *testing.T) {
			if !tb.host {
				t.Skip(tb.skip)
			}
			wideAccumulate, wide512 = true, tb.width == 32
			f(t, tb)
		})
	}
}

// tileKs are the depths the tile tests run: every k up to 9 (no k, one
// k, the depths around the two-row path's four-k unroll) and the
// engine's two widths, one either side.
func tileKs() []int {
	return []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 383, 384, 1536}
}

// tileLd is a tile's three leading dimensions, in elements.
type tileLd struct{ o, a, b int }

// tileStrides are leading dimensions for depth k and a tile w columns
// wide: the tightest, and ones that are not multiples of sixteen (rows
// that start anywhere in a vector) or of four, with gaps between a's
// rows.
func tileStrides(k, w int) []tileLd {
	return []tileLd{{w, k, w}, {w + 3, k + 3, w + 5}, {2*w + 5, k + 1, 2*w + 8}, {w + 8, k + 5, w + 1}}
}

// tileLens are the operand lengths a tile w columns wide reads: six
// rows of o and a, and k rows of b, w columns each.
func tileLens(k, w int, ld tileLd) (lo, la, lb int) {
	return 5*ld.o + w, 5*ld.a + k, max(0, (k-1)*ld.b+w)
}

// tilePairs is what matMulPairs does to the same 6 x w block: three row
// pairs, four k per axpy4x2 pass, the k tail through axpy.
func tilePairs(o []float32, ldo int, a []float32, lda int, b []float32, ldb, k, w int) {
	for i := 0; i < 6; i += 2 {
		o0, o1 := o[i*ldo:i*ldo+w], o[(i+1)*ldo:(i+1)*ldo+w]
		a0, a1 := a[i*lda:], a[(i+1)*lda:]
		kk := 0
		for ; kk+4 <= k; kk += 4 {
			axpy4x2(o0, o1, a0[kk:kk+4], a1[kk:kk+4], b[kk*ldb:], b[(kk+1)*ldb:], b[(kk+2)*ldb:], b[(kk+3)*ldb:])
		}
		for ; kk < k; kk++ {
			axpy(o0, a0[kk], b[kk*ldb:])
			axpy(o1, a1[kk], b[kk*ldb:])
		}
	}
}

// checkTile runs one tile through the assembly, the Go twin and the
// two-row path. Against the twin NaNs match as NaNs; against the two-row
// path every bit matches, NaN payloads included, wherever that path is
// all assembly (k a multiple of four). Its k tail is Go, whose ADDSS
// takes the product as first source where the assembly takes the sum, so
// there two NaNs may leave different payloads.
func checkTile(t *testing.T, tb tileBody, name string, o, a, b operand, ld tileLd, k int) {
	t.Helper()
	want, pairs := o.clone(), o.clone()
	aWant, bWant := a.clone(), b.clone()
	tileRef(want.s, ld.o, aWant.s, ld.a, bWant.s, ld.b, k, tb.width)
	tilePairs(pairs.s, ld.o, aWant.s, ld.a, bWant.s, ld.b, k, tb.width)
	tb.run(o.s, ld.o, a.s, ld.a, b.s, ld.b, k)
	assertSameBacking(t, name+": o against tileRef", want, o)
	if k%4 == 0 {
		assertSamePayload(t, name+": o against the two-row path", pairs, o)
	} else {
		assertSameBacking(t, name+": o against the two-row path", pairs, o)
	}
	assertSameBacking(t, name+": a", aWant, a)
	assertSameBacking(t, name+": b", bWant, b)
}

func TestTileMatchesRef(t *testing.T) {
	eachTile(t, func(t *testing.T, tb tileBody) {
		rng := rand.New(rand.NewSource(64))
		for _, k := range tileKs() {
			for _, ld := range tileStrides(k, tb.width) {
				lo, la, lb := tileLens(k, tb.width, ld)
				for off := 0; off < 4; off++ {
					for mode := 0; mode < 3; mode++ {
						o := randOperand(rng, lo, off, mode)
						a := randOperand(rng, la, (off+1)%4, mode)
						b := randOperand(rng, lb, (off+3)%4, mode)
						checkTile(t, tb, fmt.Sprintf("k %d, strides %+v, offset %d, mode %d", k, ld, off, mode), o, a, b, ld, k)
					}
				}
			}
		}
	})
}

// MatMulInto with the register tiles on stores what it stores with them
// off, on every row count mod 6 and column count mod 16 (and, for the
// 32-column tile, mod 32) around the tiles, at one worker and two — and,
// on outputs wide enough for the column split, at three, so a share can
// end inside a panel's worth of leftover columns. NaN payloads are
// compared where k is a multiple of four (see checkTile).
func TestMatMulWideShapes(t *testing.T) {
	defer SetParallelism(Parallelism())
	eachTile(t, func(t *testing.T, tb tileBody) {
		rng := rand.New(rand.NewSource(66))
		check := func(r, k, c int, workers []int) {
			a, b := randMat(r, k, rng.Int63()), randMat(k, c, rng.Int63())
			if rng.Intn(2) == 0 {
				a, b = specialMat(r, k, rng), specialMat(k, c, rng)
			}
			wideAccumulate = false
			SetParallelism(1)
			want, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			wideAccumulate = true
			for _, w := range workers {
				SetParallelism(w)
				got := dirty(r, c)
				if err := MatMulInto(a, b, got); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%dx%dx%d at %d workers", r, k, c, w)
				if k%4 == 0 {
					assertSamePayload(t, name, operand{backing: want.Data}, operand{backing: got.Data})
				} else {
					assertSameMat(t, name, want, got)
				}
			}
		}
		cols := []int{63, 64, 65, 79, 80, 81}
		for c := 16; c <= 50; c++ {
			cols = append(cols, c)
		}
		for _, k := range []int{1, 3, 4, 5, 64} {
			for r := 9; r <= 21; r++ {
				for _, c := range cols {
					check(r, k, c, []int{1, 2})
				}
			}
		}
		for _, c := range []int{127, 128, 144, 200, 401} {
			for _, r := range []int{9, 20, 128} {
				check(r, 64, c, []int{1, 2, 3})
			}
		}
	})
}

// FuzzTile is the tiles' differential target: arbitrary bit patterns in
// o, a and b, any depth below 70, leading dimensions that are not
// multiples of sixteen and starts anywhere in a vector — through every
// tile body the host runs.
func FuzzTile(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64}, uint8(9), uint8(0), uint8(1))
	f.Add([]byte{0, 0, 192, 127, 1, 0, 192, 127, 0, 0, 128, 127, 0, 0, 128, 255, 1, 0, 0, 0}, uint8(8), uint8(0x5b), uint8(3))
	f.Add([]byte{255, 255, 127, 127, 255, 255, 127, 255, 0, 0, 128, 0}, uint8(64), uint8(0xff), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, depth, strides, off uint8) {
		ran := false
		for _, tb := range tileBodies() {
			if !tb.host {
				continue
			}
			ran = true
			k := int(depth) % 70
			ld := tileLd{o: tb.width + int(strides)%8, a: k + int(strides>>3)%4, b: tb.width + int(strides>>5)}
			lo, la, lb := tileLens(k, tb.width, ld)
			at := 0
			mk := func(n, shift int) operand {
				o := newOperand(n, (int(off)+shift)%4)
				floatsFromBytes(data, &at, o.s)
				return o
			}
			o, a, b := mk(lo, 0), mk(la, 1), mk(lb, 3)
			checkTile(t, tb, fmt.Sprintf("%s, k %d, strides %+v", tb.name, k, ld), o, a, b, ld, k)
		}
		if !ran {
			t.Skip(tileBodies()[0].skip)
		}
	})
}
