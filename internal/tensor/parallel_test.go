package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// refMatMul is the textbook triple loop — no skips, no tiling — used as
// the semantics oracle for the production kernel.
func refMatMul(a, b Mat) Mat {
	out := New(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			var s float32
			for k := 0; k < a.C; k++ {
				s += float32(a.At(i, k) * b.At(k, j)) // converted: no FMA on any GOARCH
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// Property: MatMul agrees with the reference kernel on inputs containing
// NaN and ±Inf — 0·NaN must stay NaN, so no term may be skipped
// (regression for the old `av == 0` fast path, which broke exactly this).
func TestMatMulNaNInfParity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(6), 1+rng.Intn(5)
		a, b := specialMat(r, k, rng), specialMat(k, c, rng)
		got, err := MatMul(a, b)
		if err != nil {
			return false
		}
		want := refMatMul(a, b)
		for i := range got.Data {
			if !sameBits(got.Data[i], want.Data[i]) {
				t.Logf("seed %d: elem %d = %v, want %v", seed, i, got.Data[i], want.Data[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A zero row times a NaN column is NaN, pinned explicitly.
func TestMatMulZeroTimesNaN(t *testing.T) {
	a, _ := FromSlice(1, 2, []float32{0, 0})
	b, _ := FromSlice(2, 1, []float32{float32(math.NaN()), 1})
	out, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(out.At(0, 0))) {
		t.Errorf("0 @ NaN = %v, want NaN", out.At(0, 0))
	}
}

// parLevels are the worker counts the invariance tests sweep: serial,
// the even and odd splits, more workers than any test host has cores
// (more chunks, the same few goroutines), and GOMAXPROCS itself.
func parLevels() []int {
	return []int{1, 2, 3, 8, runtime.GOMAXPROCS(0)}
}

// Kernels must be bit-identical at every worker count, on shapes large
// enough to actually engage the parallel paths (tall for row tiles,
// single-row for column tiles and for the element-wise activations).
// Attention takes a's rows as queries in heads 16 wide, grouped in
// pairs, over a cache of 40 positions before them.
func TestKernelParallelismInvariance(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ r, k, c int }{
		{128, 96, 80}, // row-tiled (and tall enough that the norms and adds fork)
		{1, 256, 512}, // column-tiled (decode shape)
		{3, 128, 300}, // fewer rows than workers
		{1, 1536, 64}, // GELU / SiLU at decode width (the FFN activation of a 384-wide model)
	}
	for _, sh := range shapes {
		a, b := New(sh.r, sh.k), New(sh.k, sh.c)
		bt := New(sh.c, sh.k)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
		}
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
		for i := range bt.Data {
			bt.Data[i] = float32(rng.NormFloat64())
		}
		gamma := make([]float32, sh.k)
		beta := make([]float32, sh.k)
		for i := range gamma {
			gamma[i] = float32(rng.NormFloat64())
			beta[i] = float32(rng.NormFloat64())
		}

		const pos = 40
		heads := sh.k / 16
		kv := kvMats{randMat(pos+sh.r, sh.k/2, rng.Int63()), randMat(pos+sh.r, sh.k/2, rng.Int63())}

		type result struct{ mm, mmt, ln, rms, gelu, silu, att, add []float32 }
		runAll := func(par int) result {
			prev := SetParallelism(par)
			defer SetParallelism(prev)
			mm, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			mmt, err := MatMulT(a, bt)
			if err != nil {
				t.Fatal(err)
			}
			ln, rms := New(a.R, a.C), New(a.R, a.C)
			if err := LayerNormInto(a, gamma, beta, 1e-5, ln); err != nil {
				t.Fatal(err)
			}
			if err := RMSNormInto(a, gamma, 1e-5, rms); err != nil {
				t.Fatal(err)
			}
			g := a.Clone()
			g.GELU()
			s := a.Clone()
			s.SiLU()
			att, scores := New(a.R, a.C), AttendScratch{}
			Attend(a, kv, pos, heads, 2, att, &scores)
			add := a.Clone()
			if err := add.AddBias(beta); err != nil {
				t.Fatal(err)
			}
			if err := add.Add(ln); err != nil {
				t.Fatal(err)
			}
			return result{mm.Data, mmt.Data, ln.Data, rms.Data, g.Data, s.Data, att.Data, add.Data}
		}

		base := runAll(1)
		for _, par := range parLevels()[1:] {
			got := runAll(par)
			check := func(name string, want, have []float32) {
				for i := range want {
					if want[i] != have[i] {
						t.Fatalf("shape %dx%dx%d %s: par %d diverges from serial at %d (%v vs %v)",
							sh.r, sh.k, sh.c, name, par, i, have[i], want[i])
					}
				}
			}
			check("matmul", base.mm, got.mm)
			check("matmulT", base.mmt, got.mmt)
			check("layernorm", base.ln, got.ln)
			check("rmsnorm", base.rms, got.rms)
			check("gelu", base.gelu, got.gelu)
			check("silu", base.silu, got.silu)
			check("attention", base.att, got.att)
			check("bias and residual adds", base.add, got.add)
		}
	}
}

func TestSetParallelismRoundTrip(t *testing.T) {
	prev := SetParallelism(5)
	if Parallelism() != 5 {
		t.Errorf("Parallelism = %d after SetParallelism(5)", Parallelism())
	}
	if got := SetParallelism(prev); got != 5 {
		t.Errorf("SetParallelism returned %d, want 5", got)
	}
}

// The package has one forked-call descriptor. Kernels called from
// several goroutines at once — two engines in one process — must each
// still produce the serial bits: whoever finds the descriptor taken runs
// serially, and nobody runs with another call's operands.
func TestKernelsConcurrentCallers(t *testing.T) {
	defer SetParallelism(SetParallelism(2))
	const callers = 4
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := randMat(1+g, 128+64*g, int64(g)), randMat(128+64*g, 256, int64(100+g))
			want := refMatMul(a, b)
			out := New(a.R, b.C)
			act := randMat(1, 1536, int64(200+g))
			wantAct := act.Clone()
			geluRef(wantAct.Data)
			q, kv := randMat(1, 384, int64(300+g)), kvMats{randMat(150, 384, int64(400+g)), randMat(150, 384, int64(500+g))}
			wantAtt, att, scores := attendRef(q, kv, 149, 6, 1), New(1, 384), AttendScratch{}
			for round := 0; round < 50; round++ {
				if err := MatMulInto(a, b, out); err != nil {
					t.Error(err)
					return
				}
				for i := range want.Data {
					if !sameBits(out.Data[i], want.Data[i]) {
						t.Errorf("caller %d round %d: matmul elem %d = %v, want %v", g, round, i, out.Data[i], want.Data[i])
						return
					}
				}
				got := act.Clone()
				got.GELU()
				for i := range wantAct.Data {
					if !sameBits(got.Data[i], wantAct.Data[i]) {
						t.Errorf("caller %d round %d: gelu elem %d = %v, want %v", g, round, i, got.Data[i], wantAct.Data[i])
						return
					}
				}
				clear(att.Data)
				Attend(q, kv, 149, 6, 1, att, &scores)
				for i := range wantAtt.Data {
					if !sameBits(att.Data[i], wantAtt.Data[i]) {
						t.Errorf("caller %d round %d: attention elem %d = %v, want %v", g, round, i, att.Data[i], wantAtt.Data[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if fork.busy.Load() {
		t.Error("forked-call descriptor left taken")
	}
}
