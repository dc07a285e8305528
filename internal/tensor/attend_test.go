package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// kvMats is a KV cache held as two matrices, one row per position.
type kvMats struct{ k, v Mat }

func (c kvMats) KRow(p int) []float32 { return c.k.Row(p) }
func (c kvMats) VRow(p int) []float32 { return c.v.Row(p) }

// attendRef is the oracle: per query row and head, a plain loop that
// takes one cached position at a time, both in the dot and in the
// weighted sum, each product converted so that no GOARCH fuses it.
func attendRef(q Mat, kv kvMats, pos, heads, group int) Mat {
	hd := q.C / heads
	scale := 1 / float32(math.Sqrt(float64(hd)))
	out := New(q.R, q.C)
	for i := 0; i < q.R; i++ {
		for h := 0; h < heads; h++ {
			qh := q.Row(i)[h*hd : (h+1)*hd]
			off := h / group * hd
			w := make([]float32, pos+i+1)
			maxS := float32(math.Inf(-1))
			for p := range w {
				var s float32
				for d, x := range qh {
					s += float32(x * kv.k.Row(p)[off+d])
				}
				w[p] = s * scale
				if w[p] > maxS {
					maxS = w[p]
				}
			}
			var sum float32
			for p := range w {
				w[p] = float32(math.Exp(float64(w[p] - maxS)))
				sum += w[p]
			}
			inv := float32(1)
			if sum > 0 {
				inv = 1 / sum
			}
			dst := out.Row(i)[h*hd : (h+1)*hd]
			for p := range w {
				wgt := w[p] * inv
				for d := range dst {
					dst[d] += float32(wgt * kv.v.Row(p)[off+d])
				}
			}
		}
	}
	return out
}

// attendCase fills q (rows x heads*hd) and a cache of pos+rows positions
// of kvHeads*hd: Gaussians, with one element in sparse drawn from
// awkward where sparse > 0.
func attendCase(rng *rand.Rand, rows, pos, heads, group, hd, sparse int) (Mat, kvMats) {
	fill := func(m Mat) Mat {
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
			if sparse > 0 && rng.Intn(sparse) == 0 {
				m.Data[i] = awkward[rng.Intn(len(awkward))]
			}
		}
		return m
	}
	w := heads / group * hd
	return fill(New(rows, heads*hd)), kvMats{fill(New(pos+rows, w)), fill(New(pos+rows, w))}
}

// Attend stores the oracle's bits: prompt heights 1-9 from position 0
// (every limit mod 4 of the four-position passes) and from later
// positions, grouped-query groups 1-3, head widths 2, 16 and 64,
// Gaussian and awkward values, at one worker and two, on both sides of
// minAttendWork. The score scratch starts as NaNs and is shared by every
// case, so a score read before it is written shows.
func TestAttendMatchesRef(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(31))
	scores := dirty(1, 8)
	forked := map[bool]int{}
	for _, workers := range []int{1, 2} {
		SetParallelism(workers)
		for _, hd := range []int{2, 16, 64} {
			for _, group := range []int{1, 2, 3} {
				heads := 2 * group
				for _, pos := range []int{0, 6, 200} {
					for rows := 1; rows <= 9; rows++ {
						for _, sparse := range []int{0, 8} {
							q, kv := attendCase(rng, rows, pos, heads, group, hd, sparse)
							want := attendRef(q, kv, pos, heads, group)
							got := New(rows, heads*hd)
							Attend(q, kv, pos, heads, group, got, &scores)
							assertSameMat(t, fmt.Sprintf("workers %d, head width %d, group %d, pos %d, rows %d, awkward 1/%d",
								workers, hd, group, pos, rows, sparse), want, got)
							forked[rows*heads*(pos+rows)*hd >= minAttendWork]++
						}
					}
				}
			}
		}
	}
	if forked[true] == 0 || forked[false] == 0 {
		t.Fatalf("cases at or above minAttendWork: %d, below: %d; want both", forked[true], forked[false])
	}

	// With one-hot V rows out is the softmax weights themselves; q picks
	// each position's score out of its K row.
	weights := func(t *testing.T, xs []float32) []float32 {
		n := len(xs)
		q, kv := New(1, n), kvMats{New(n, n), New(n, n)}
		q.Data[0] = 1
		for p, x := range xs {
			kv.k.Set(p, 0, x)
			kv.v.Set(p, p, 1)
		}
		out := New(1, n)
		Attend(q, kv, n-1, 1, 1, out, &scores)
		assertSameMat(t, "one-hot", attendRef(q, kv, n-1, 1, 1), out)
		return out.Row(0)
	}
	// inUnitSum reports whether every weight lies in [0, 1] and they sum
	// to 1.
	inUnitSum := func(w []float32) bool {
		var sum float32
		for _, v := range w {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return approx(sum, 1, 1e-4)
	}
	t.Run("softmax", func(t *testing.T) {
		w := weights(t, []float32{1, 2, 3})
		if !inUnitSum(w) || !(w[0] < w[1] && w[1] < w[2]) {
			t.Errorf("weights of scores 1, 2, 3: %v", w)
		}
		// Equal large scores stay finite and uniform.
		w = weights(t, []float32{1000, 1000, 1000})
		for _, v := range w {
			if !approx(v, 1.0/3, 1e-5) {
				t.Errorf("weights of equal large scores: %v", w)
			}
		}
	})
	t.Run("softmax property", func(t *testing.T) {
		f := func(raw []float32) bool {
			if len(raw) == 0 || len(raw) > 64 {
				return true
			}
			for _, v := range raw {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					return true
				}
			}
			return inUnitSum(weights(t, raw))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
}

// The attention row beside BenchmarkGemvSplit: one block's decode
// attention (one query row, six heads 64 wide) over 150 cached positions
// — resident_latency's mid-decode shape on bench-ooc — serial against
// forked over (row, head) ranges. Like the GEMV table it wants
// -benchtime 2s or more.
func BenchmarkAttendSplit(b *testing.B) {
	const cached, hidden, heads = 150, 384, 6
	q := randMat(1, hidden, 5)
	kv := &kvMats{randMat(cached+1, hidden, 6), randMat(cached+1, hidden, 7)}
	out := New(1, hidden)
	scores := New(1, 256)
	benchAtParallelism(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(out.Data)
			Attend(q, kv, cached, heads, 1, out, &scores)
		}
	})
}
