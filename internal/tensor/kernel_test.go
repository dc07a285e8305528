package tensor

import (
	"math"
	"math/rand"
	"testing"
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
				s += x * b.Row(j)[k]
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
