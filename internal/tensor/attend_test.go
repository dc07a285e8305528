package tensor

import (
	"encoding/binary"
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

// attendLevel is one vector level Attend can run at: the register
// tiles at thirty-two columns (AVX-512) or sixteen (AVX), or none
// (SSE2, the per-row path at every height).
type attendLevel struct {
	name           string
	tiles, tile512 bool
	host           bool
}

func attendLevels() []attendLevel {
	return []attendLevel{
		{"avx512", true, true, probed512},
		{"avx", true, false, probedAVX},
		{"sse2", false, false, true},
	}
}

// eachAttendLevel runs f once per level the host has, as a subtest
// named after it, with the package's switches set to that level.
func eachAttendLevel(t *testing.T, f func(t *testing.T)) {
	defer func() { wideAccumulate, wide512 = probedAVX, probed512 }()
	for _, l := range attendLevels() {
		t.Run(l.name, func(t *testing.T) {
			if !l.host {
				t.Skip("the host lacks this level")
			}
			wideAccumulate, wide512 = l.tiles, l.tile512
			f(t)
		})
	}
}

// dirtyScratch is Attend's scratch with every part NaN and large enough
// for any case below, so that a score or panel element read before this
// call wrote it shows.
func dirtyScratch() AttendScratch {
	return AttendScratch{scores: dirty(1, 8), tile: dirty(1, 1<<14).Data, kt: dirty(1, 1<<16).Data, v: dirty(1, 1<<16).Data}
}

// Attend stores the oracle's bits. Short calls: prompt heights 1-9 from
// position 0 (every limit mod 4 of the four-position passes) and from
// later positions, grouped-query groups 1-3, head widths 2, 16 and 64,
// Gaussian and awkward values, at one worker and two, on both sides of
// minAttendWork. Prefill heights (the "tiles" subtests, at every vector
// level the host has and at one, two and three workers): every height
// mod 6 from 9 to 14 and 40, 129 and 130, from position 0 and a later
// one, head widths 16, 64 and 128, one KV head per query head and three
// per KV head, with awkward values. The scratch starts as NaNs and is
// shared by every case, so a score or panel element read before it is
// written shows.
func TestAttendMatchesRef(t *testing.T) {
	defer SetParallelism(Parallelism())
	rng := rand.New(rand.NewSource(31))
	scores := dirtyScratch()
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

	t.Run("tiles", func(t *testing.T) {
		type tileCase struct {
			name              string
			q                 Mat
			kv                kvMats
			pos, heads, group int
			want              Mat
		}
		var cases []tileCase
		rng := rand.New(rand.NewSource(32))
		for _, hd := range []int{16, 64, 128} {
			for _, group := range []int{1, 3} {
				heads := 2 * group
				for _, pos := range []int{0, 37} {
					for _, rows := range []int{9, 10, 11, 12, 13, 14, 40, 129, 130} {
						if rows > 40 && (hd == 128 || pos > 0) {
							continue // the longest heights from position 0 at head widths 16 and 64
						}
						q, kv := attendCase(rng, rows, pos, heads, group, hd, 8)
						cases = append(cases, tileCase{fmt.Sprintf("head width %d, group %d, pos %d, rows %d", hd, group, pos, rows),
							q, kv, pos, heads, group, attendRef(q, kv, pos, heads, group)})
					}
				}
			}
		}
		eachAttendLevel(t, func(t *testing.T) {
			sc := dirtyScratch()
			for _, workers := range []int{1, 2, 3} {
				SetParallelism(workers)
				for _, c := range cases {
					got := New(c.q.R, c.q.C)
					Attend(c.q, c.kv, c.pos, c.heads, c.group, got, &sc)
					assertSameMat(t, fmt.Sprintf("workers %d, %s", workers, c.name), c.want, got)
				}
			}
		})
	})

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
	scores := NewAttendScratch(256)
	benchAtParallelism(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(out.Data)
			Attend(q, kv, cached, heads, 1, out, &scores)
		}
	})
}

// FuzzAttend is the attention core's differential target: arbitrary
// float32 bit patterns for q, K and V, prompt heights up to 48 (on both
// sides of tallGEMMRows), positions up to 39, head widths that fill no
// tile, one of each width and both, grouped-query groups 1-3, at every
// vector level the host has, against the per-position oracle.
func FuzzAttend(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64}, uint8(12), uint8(3), uint8(3))
	f.Add([]byte{0, 0, 192, 127, 1, 0, 192, 127, 0, 0, 128, 127, 0, 0, 128, 255, 0, 0, 0, 128}, uint8(40), uint8(0), uint8(0x2a))
	f.Add([]byte{255, 255, 127, 127, 205, 204, 76, 62, 0, 0, 128, 0}, uint8(8), uint8(30), uint8(0x11))
	f.Add([]byte{}, uint8(47), uint8(39), uint8(0xff))
	// Twelve rows of one head 16 wide, every value 0.5 but one +Inf in
	// V's last row, which the second block's first five rows cannot see.
	masked := make([]byte, 4*3*12*16)
	for i := 0; i < len(masked); i += 4 {
		binary.LittleEndian.PutUint32(masked[i:], math.Float32bits(0.5))
	}
	binary.LittleEndian.PutUint32(masked[4*(2*12*16+11*16):], math.Float32bits(float32(math.Inf(1))))
	f.Add(masked, uint8(11), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rows, pos, shape uint8) {
		r, p := 1+int(rows)%48, int(pos)%40
		hd := []int{16, 32, 48, 64, 8}[int(shape)%5]
		group := 1 + int(shape>>3)%3
		heads := group * (1 + int(shape>>5)%2)
		q := New(r, heads*hd)
		kv := kvMats{New(p+r, heads/group*hd), New(p+r, heads/group*hd)}
		at := 0
		floatsFromBytes(data, &at, q.Data)
		floatsFromBytes(data, &at, kv.k.Data)
		floatsFromBytes(data, &at, kv.v.Data)
		want := attendRef(q, kv, p, heads, group)
		defer func() { wideAccumulate, wide512 = probedAVX, probed512 }()
		for _, l := range attendLevels() {
			if !l.host {
				continue
			}
			wideAccumulate, wide512 = l.tiles, l.tile512
			got, sc := New(r, heads*hd), dirtyScratch()
			Attend(q, kv, p, heads, group, got, &sc)
			assertSameMat(t, fmt.Sprintf("%s, rows %d, pos %d, head width %d, heads %d, group %d", l.name, r, p, hd, heads, group), want, got)
		}
	})
}

// One block's prefill attention on bench-ooc's shapes: 128 query rows,
// six heads 64 wide, from position 0 — at each vector level the host
// has, so the tiles' row sits beside the per-row path they replace.
func BenchmarkAttendPrefill(b *testing.B) {
	const rows, hidden, heads = 128, 384, 6
	q := randMat(rows, hidden, 5)
	kv := &kvMats{randMat(rows, hidden, 6), randMat(rows, hidden, 7)}
	out := New(rows, hidden)
	defer func() { wideAccumulate, wide512 = probedAVX, probed512 }()
	for _, l := range attendLevels() {
		if !l.host {
			continue
		}
		b.Run(l.name, func(b *testing.B) {
			wideAccumulate, wide512 = l.tiles, l.tile512
			var sc AttendScratch
			benchAtParallelism(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					clear(out.Data)
					Attend(q, kv, 0, heads, 1, out, &sc)
				}
			})
		})
	}
}
