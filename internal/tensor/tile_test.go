package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The tall GEMM's register tile (tile6x16) against its Go twin and
// against the SSE2 two-row path it replaces, and MatMulInto with the
// tiles on against the same call with them off. Off amd64, or on a host
// without AVX, the tile is never taken and these skip.

func skipWithoutTile(t testing.TB) {
	t.Helper()
	if !wideAccumulate {
		t.Skip("no AVX here (CPUID.1:ECX OSXSAVE/AVX or XCR0 YMM state missing, or GOARCH is not amd64): matMulTile never runs the register tile")
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

// tileStrides are leading dimensions for depth k: the tightest, and
// ones that are not multiples of sixteen (rows that start anywhere in a
// vector) or of four, with gaps between a's rows.
func tileStrides(k int) []tileLd {
	return []tileLd{{16, k, 16}, {19, k + 3, 21}, {37, k + 1, 40}, {24, k + 5, 17}}
}

// tileLens are the operand lengths tile6x16 reads: six rows of o and a,
// and k rows of b, sixteen columns each.
func tileLens(k int, ld tileLd) (lo, la, lb int) {
	return 5*ld.o + 16, 5*ld.a + k, max(0, (k-1)*ld.b+16)
}

// tilePairs is what matMulPairs does to the same 6x16 block: three row
// pairs, four k per axpy4x2 pass, the k tail through axpy.
func tilePairs(o []float32, ldo int, a []float32, lda int, b []float32, ldb, k int) {
	for i := 0; i < 6; i += 2 {
		o0, o1 := o[i*ldo:i*ldo+16], o[(i+1)*ldo:(i+1)*ldo+16]
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
func checkTile(t *testing.T, name string, o, a, b operand, ld tileLd, k int) {
	t.Helper()
	want, pairs := o.clone(), o.clone()
	aWant, bWant := a.clone(), b.clone()
	tile6x16Ref(want.s, ld.o, aWant.s, ld.a, bWant.s, ld.b, k)
	tilePairs(pairs.s, ld.o, aWant.s, ld.a, bWant.s, ld.b, k)
	tile6x16(o.s, ld.o, a.s, ld.a, b.s, ld.b, k)
	assertSameBacking(t, name+": o against tile6x16Ref", want, o)
	if k%4 == 0 {
		assertSamePayload(t, name+": o against the two-row path", pairs, o)
	} else {
		assertSameBacking(t, name+": o against the two-row path", pairs, o)
	}
	assertSameBacking(t, name+": a", aWant, a)
	assertSameBacking(t, name+": b", bWant, b)
}

func TestTileMatchesRef(t *testing.T) {
	skipWithoutTile(t)
	rng := rand.New(rand.NewSource(64))
	for _, k := range tileKs() {
		for _, ld := range tileStrides(k) {
			lo, la, lb := tileLens(k, ld)
			for off := 0; off < 4; off++ {
				for mode := 0; mode < 3; mode++ {
					o := randOperand(rng, lo, off, mode)
					a := randOperand(rng, la, (off+1)%4, mode)
					b := randOperand(rng, lb, (off+3)%4, mode)
					checkTile(t, fmt.Sprintf("k %d, strides %+v, offset %d, mode %d", k, ld, off, mode), o, a, b, ld, k)
				}
			}
		}
	}
}

// MatMulInto with the register tiles on stores what it stores with them
// off, on every row count mod 6 and column count mod 16 around the
// tiles, at one worker and two — and, on outputs wide enough for the
// column split, at three, so a share can end inside a panel's worth of
// leftover columns. NaN payloads are compared where k is a multiple of
// four (see checkTile).
func TestMatMulWideShapes(t *testing.T) {
	skipWithoutTile(t)
	defer SetParallelism(Parallelism())
	defer func() { wideAccumulate = true }()
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
	for _, k := range []int{1, 3, 4, 5, 64} {
		for r := 9; r <= 21; r++ {
			for c := 16; c <= 50; c++ {
				check(r, k, c, []int{1, 2})
			}
		}
	}
	for _, c := range []int{127, 128, 144, 200, 401} {
		for _, r := range []int{9, 20, 128} {
			check(r, 64, c, []int{1, 2, 3})
		}
	}
}

// FuzzTile is the tile's differential target: arbitrary bit patterns in
// o, a and b, any depth below 70, leading dimensions that are not
// multiples of sixteen and starts anywhere in a vector.
func FuzzTile(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64}, uint8(9), uint8(0), uint8(1))
	f.Add([]byte{0, 0, 192, 127, 1, 0, 192, 127, 0, 0, 128, 127, 0, 0, 128, 255, 1, 0, 0, 0}, uint8(8), uint8(0x5b), uint8(3))
	f.Add([]byte{255, 255, 127, 127, 255, 255, 127, 255, 0, 0, 128, 0}, uint8(64), uint8(0xff), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, depth, strides, off uint8) {
		skipWithoutTile(t)
		k := int(depth) % 70
		ld := tileLd{o: 16 + int(strides)%8, a: k + int(strides>>3)%4, b: 16 + int(strides>>5)}
		lo, la, lb := tileLens(k, ld)
		at := 0
		mk := func(n, shift int) operand {
			o := newOperand(n, (int(off)+shift)%4)
			floatsFromBytes(data, &at, o.s)
			return o
		}
		o, a, b := mk(lo, 0), mk(la, 1), mk(lb, 3)
		checkTile(t, fmt.Sprintf("k %d, strides %+v", k, ld), o, a, b, ld, k)
	})
}
