package tensor

import (
	"math"
	"math/rand"
	"testing"

	"helmsim/internal/quant"
)

// The oracles are the loops the unrolled kernels replaced, reduced to
// what they compute per output element: a sum that starts at zero and
// adds term k after term k-1. For a @ b that is refMatMul
// (parallel_test.go); matMulTScalar is the same for a @ bᵀ, one lone
// chain per element.
func matMulTScalar(a, b Mat) Mat {
	out := New(a.R, b.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.R; j++ {
			var s float32
			for k, x := range a.Row(i) {
				s += float32(x * b.Row(j)[k]) // converted: no FMA on any GOARCH
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// sameBits demands identical bit patterns; two NaNs count as equal
// whatever their payloads (which operand's payload an add propagates is
// the instruction selector's business, not the kernel's).
func sameBits(x, y float32) bool {
	if x != x || y != y {
		return x != x && y != y
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

func assertSameMat(t *testing.T, name string, want, got Mat) {
	t.Helper()
	if want.R != got.R || want.C != got.C {
		t.Fatalf("%s: %dx%d, want %dx%d", name, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if !sameBits(want.Data[i], got.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), oracle %v (%#08x)", name, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// specialMat is a Gaussian matrix with a quarter of its elements drawn
// from NaN, ±Inf and ±0 and another quarter zero — inputs on which a
// skipped or reordered term changes the result.
func specialMat(r, c int, rng *rand.Rand) Mat {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	m := New(r, c)
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0:
			m.Data[i] = specials[rng.Intn(len(specials))]
		case 1:
			m.Data[i] = 0
		default:
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	return m
}

// The k-unrolled GEMM/GEMV stores the scalar oracle's bits for every
// remainder of K mod 4, for single-row, fewer-than-workers and tall
// batches, on finite and on NaN/Inf-laden inputs, at worker counts that
// engage the serial, row-split and column-split paths.
func TestMatMulMatchesScalarOracle(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(21))
	for _, r := range []int{1, 3, 5, 128} {
		for kmod := 0; kmod < 4; kmod++ {
			// Wide enough to clear minParallelFlops and to column-split
			// at offsets that are not multiples of the unroll.
			k, c := 256+kmod, 301
			if r == 128 {
				k, c = 32+kmod, 37
			}
			for _, special := range []bool{false, true} {
				a, b := randMat(r, k, int64(r*10+kmod)), randMat(k, c, int64(r*10+kmod+5))
				if special {
					a, b = specialMat(r, k, rng), specialMat(k, c, rng)
				}
				want := refMatMul(a, b)
				for _, par := range []int{1, 2, 3, 8} {
					SetParallelism(par)
					got, err := MatMul(a, b)
					if err != nil {
						t.Fatal(err)
					}
					assertSameMat(t, "matmul", want, got)
				}
			}
		}
	}
}

// A column tile at any offset and width computes the same bits as the
// whole-row kernel: the split never changes an element's terms or order.
func TestMatMulTileColumnOffsets(t *testing.T) {
	a, b := randMat(3, 11, 31), randMat(11, 29, 32)
	want := refMatMul(a, b)
	for _, cuts := range [][]int{{0, 29}, {0, 1, 29}, {0, 7, 8, 21, 29}, {0, 13, 26, 29}} {
		got := New(a.R, b.C)
		for i := 0; i+1 < len(cuts); i++ {
			matMulTile(a, b, got, 0, a.R, cuts[i], cuts[i+1])
		}
		assertSameMat(t, "column tiles", want, got)
	}
}

// The four-chain MatMulT equals one lone dot per element, including the
// table tail when b.R is not a multiple of four and table splits that
// start off a multiple of four.
func TestMatMulTMatchesScalarOracle(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(22))
	for _, shape := range []struct{ r, k, n int }{{1, 5, 3}, {1, 384, 259}, {2, 130, 517}, {9, 64, 130}} {
		for _, special := range []bool{false, true} {
			a, b := randMat(shape.r, shape.k, 41), randMat(shape.n, shape.k, 42)
			if special {
				a, b = specialMat(shape.r, shape.k, rng), specialMat(shape.n, shape.k, rng)
			}
			want := matMulTScalar(a, b)
			for _, par := range []int{1, 2, 3, 8} {
				SetParallelism(par)
				got, err := MatMulT(a, b)
				if err != nil {
					t.Fatal(err)
				}
				assertSameMat(t, "matmulT", want, got)
			}
		}
	}
}

// packMat quantizes m to 4 bits in groups of gs and returns the packed
// view of its serialized form beside the matrix the dequantizer makes of
// it — the fused kernels' oracle input.
func packMat(t testing.TB, m Mat, gs int) (quant.Packed, Mat) {
	t.Helper()
	qt, err := quant.Quantize(m.Data, quant.Config{GroupSize: gs})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := qt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p, err := quant.ViewPacked(blob)
	if err != nil {
		t.Fatalf("ViewPacked: %v", err)
	}
	return p, Mat{R: m.R, C: m.C, Data: qt.Dequantize()}
}

// dirty returns an r x c matrix of NaNs: an output buffer whose previous
// contents must not leak into the result.
func dirty(r, c int) Mat {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = float32(math.NaN())
	}
	return m
}

// The fused 4-bit GEMM stores the bits of dequantize-then-MatMulInto:
// for one row, a few, the widest fused batch and a tall one, every
// remainder of K mod 4, column counts of one tile, a tile and a half and
// many, group sizes that divide a tile differently, worker counts that
// engage the serial and group-aligned split paths, NaN/Inf activations,
// into a dirty output.
func TestMatMulQ4MatchesDequantOracle(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(23))
	for _, r := range []int{1, 3, 5, 8, 128} {
		for kmod := 0; kmod < 4; kmod++ {
			for _, cols := range []int{64, 192, 384, 1536} {
				k, gs := 64+kmod, 64
				if r == 128 {
					k = 8 + kmod
				}
				if cols == 192 {
					gs = 32
				}
				p, w := packMat(t, randMat(k, cols, int64(r+kmod+cols)), gs)
				for _, special := range []bool{false, true} {
					a := randMat(r, k, int64(r*7+kmod))
					if special {
						a = specialMat(r, k, rng)
					}
					want := New(r, cols)
					if err := MatMulInto(a, w, want); err != nil {
						t.Fatal(err)
					}
					for _, par := range []int{1, 2, 3, 8} {
						SetParallelism(par)
						got := dirty(r, cols)
						if err := MatMulQ4Into(a, p, cols, got); err != nil {
							t.Fatal(err)
						}
						assertSameMat(t, "matmulQ4", want, got)
					}
				}
			}
		}
	}
}

// The fused logits kernel stores the bits of dequantize-then-MatMulTInto
// when the inner dimension is one decode run, several, or several and a
// part, with a table tail that is not a multiple of four.
func TestMatMulTQ4MatchesDequantOracle(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(24))
	for _, shape := range []struct{ r, k, n, gs int }{
		{1, 64, 3, 64}, {1, 384, 259, 64}, {3, 512, 517, 32}, {8, 640, 130, 128}, {128, 64, 37, 2},
	} {
		p, table := packMat(t, randMat(shape.n, shape.k, 43), shape.gs)
		for _, special := range []bool{false, true} {
			a := randMat(shape.r, shape.k, 44)
			if special {
				a = specialMat(shape.r, shape.k, rng)
			}
			want := New(shape.r, shape.n)
			if err := MatMulTInto(a, table, want); err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 3, 8} {
				SetParallelism(par)
				got := dirty(shape.r, shape.n)
				if err := MatMulTQ4Into(a, p, got); err != nil {
					t.Fatal(err)
				}
				assertSameMat(t, "matmulTQ4", want, got)
			}
		}
	}
}

// Shapes the tile cannot cover are refused, not mis-decoded: rows that
// straddle a group, groups wider than a tile, and mismatched operands.
func TestMatMulQ4RejectsUntileableShapes(t *testing.T) {
	a := randMat(2, 8, 51)
	straddle, _ := packMat(t, randMat(8, 96, 52), 64)
	wide, _ := packMat(t, randMat(8, 512, 53), 512)
	ok, _ := packMat(t, randMat(8, 64, 54), 64)
	if Q4Fusable(straddle, 96) || Q4Fusable(wide, 512) || !Q4Fusable(ok, 64) {
		t.Fatal("Q4Fusable disagrees with the tile rules")
	}
	for name, err := range map[string]error{
		"straddling rows":  MatMulQ4Into(a, straddle, 96, New(2, 96)),
		"wide groups":      MatMulQ4Into(a, wide, 512, New(2, 512)),
		"wrong cols":       MatMulQ4Into(a, ok, 32, New(2, 32)),
		"wrong out":        MatMulQ4Into(a, ok, 64, New(3, 64)),
		"T straddling":     MatMulTQ4Into(randMat(2, 96, 55), straddle, New(2, 8)),
		"T wrong elements": MatMulTQ4Into(randMat(2, 64, 56), ok, New(2, 9)),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
