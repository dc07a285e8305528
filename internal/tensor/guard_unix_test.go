//go:build unix

package tensor

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float32s whose last byte is the last byte before an
// inaccessible page, so reading or writing one element past the slice
// faults instead of landing in whatever the allocator put next.
func guarded(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	pages := (4*n+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, pages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	guard := (pages - 1) * page
	if err := syscall.Mprotect(mem[guard:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[guard-4*n])), n)
}

// Every operand of axpy4 and of the two-row body ends exactly at a
// guard page: a kernel that loads or stores a whole vector where part of
// one remains crashes the test binary here, where the differential tests
// would let an over-read pass.
func TestAxpy4GuardPage(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, n := range kernelLengths() {
		o0, want0 := guarded(t, n), make([]float32, n)
		var b [4][]float32
		for k := range b {
			b[k] = guarded(t, n)
			fillKernel(rng, b[k], 1)
		}
		a0 := guarded(t, 4)
		fillKernel(rng, a0, 1)
		fillKernel(rng, want0, 1)
		copy(o0, want0)
		axpy4Ref(want0, a0[0], a0[1], a0[2], a0[3], b[0], b[1], b[2], b[3])
		axpy4(o0, a0[0], a0[1], a0[2], a0[3], b[0], b[1], b[2], b[3])
		assertSameMat(t, "axpy4 at a guard page", Mat{R: 1, C: n, Data: want0}, Mat{R: 1, C: n, Data: o0})
	}
	t.Run("sse2", func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		for _, n := range kernelLengths() {
			o0, o1, want0, want1 := guarded(t, n), guarded(t, n), make([]float32, n), make([]float32, n)
			var b [4][]float32
			for k := range b {
				b[k] = guarded(t, n)
				fillKernel(rng, b[k], 1)
			}
			a0, a1 := guarded(t, 4), guarded(t, 4)
			fillKernel(rng, a0, 1)
			fillKernel(rng, a1, 1)
			fillKernel(rng, want0, 1)
			fillKernel(rng, want1, 1)
			copy(o0, want0)
			copy(o1, want1)
			axpy4x2Ref(want0, want1, a0, a1, b[0], b[1], b[2], b[3])
			axpy4x2(o0, o1, a0, a1, b[0], b[1], b[2], b[3])
			assertSameMat(t, "row 0 at a guard page", Mat{R: 1, C: n, Data: want0}, Mat{R: 1, C: n, Data: o0})
			assertSameMat(t, "row 1 at a guard page", Mat{R: 1, C: n, Data: want1}, Mat{R: 1, C: n, Data: o1})
		}
	})
}

// Each register tile's last b row, a's last element and o's last row
// end at a guard page: a tile loads its width of columns of b and o and
// one element of a per row, and not a byte more.
func TestTileGuardPage(t *testing.T) {
	eachTile(t, func(t *testing.T, tb tileBody) {
		rng := rand.New(rand.NewSource(65))
		for _, k := range tileKs() {
			for _, ld := range tileStrides(k, tb.width) {
				lo, la, lb := tileLens(k, tb.width, ld)
				o, a, b := guarded(t, lo), guarded(t, la), guarded(t, lb)
				fillKernel(rng, o, 1)
				fillKernel(rng, a, 1)
				fillKernel(rng, b, 1)
				want := append([]float32(nil), o...)
				tileRef(want, ld.o, a, ld.a, b, ld.b, k, tb.width)
				tb.run(o, ld.o, a, ld.a, b, ld.b, k)
				assertSameMat(t, fmt.Sprintf("tile, k %d, strides %+v, at a guard page", k, ld),
					Mat{R: 1, C: len(o), Data: want}, Mat{R: 1, C: len(o), Data: o})
			}
		}
	})
}

// GELU, SiLU and softmax's exponential on slices whose last vector ends
// exactly at a guard page: each vector body loads and stores four
// float32s at a time and not a byte past the last whole vector, which
// the Go twin then finishes.
func TestTranscendentalsGuardPage(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for _, tr := range transcendentals() {
		for _, n := range kernelLengths() {
			got := guarded(t, n)
			fillKernel(rng, got, 1)
			if tr.name == "softmax exp" {
				nonPositive(got)
			}
			want := append([]float32(nil), got...)
			tr.twin(want)
			tr.run(got)
			assertSameMat(t, fmt.Sprintf("%s at a guard page, n %d", tr.name, n), Mat{R: 1, C: n, Data: want}, Mat{R: 1, C: n, Data: got})
		}
	}
}

// guardedKV copies kv into guarded memory: each K page exactly as long
// as KBlock's contract needs — its rows pt apart, the last row ending at
// the page's last cached position — and each V row, each ending at a
// guard page.
func guardedKV(t *testing.T, kv kvMats) kvMats {
	g := kv
	g.pages = nil
	for i, page := range kv.pages {
		filled := min(kv.pt, kv.k.R-i*kv.pt)
		gp := guarded(t, (kv.k.C-1)*kv.pt+filled)
		copy(gp, page)
		g.pages = append(g.pages, gp)
	}
	g.vrows = nil
	for p := 0; p < kv.v.R; p++ {
		gv := guarded(t, kv.v.C)
		copy(gv, kv.v.Row(p))
		g.vrows = append(g.vrows, gv)
	}
	return g
}

// Decode attention's block and row reads with every operand ending
// exactly at a guard page: q, out, the score row, each K page (its last
// block's last row ends at the last cached position) and each V row, on
// pages of 1, 5, 16, 17 and 32 positions, at each decode body the host
// has. A body that loads or stores a lane past a short block, a head's
// columns or a row crashes the test binary here.
func TestAttendBlockGuardPage(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	rng := rand.New(rand.NewSource(66))
	eachAttendLevel(t, func(t *testing.T) {
		for _, pt := range []int{1, 5, 16, 17, 32} {
			for _, hd := range []int{8, 16, 48, 64, 128} {
				for _, pos := range []int{0, 4, 15, 16, 40, 70} {
					for _, rows := range []int{1, 2} {
						const heads, group = 3, 3
						q, kv := attendCase(rng, rows, pos, heads, group, hd, 8)
						kv = kv.paged(pt)
						want := attendRef(q, kv, pos, heads, group)
						gq := Mat{R: q.R, C: q.C, Data: guarded(t, len(q.Data))}
						copy(gq.Data, q.Data)
						sc := AttendScratch{scores: Mat{R: 1, C: pos + rows, Data: guarded(t, pos+rows)}}
						got := Mat{R: rows, C: q.C, Data: guarded(t, rows*q.C)}
						Attend(gq, guardedKV(t, kv), pos, heads, group, got, &sc)
						assertSameMat(t, fmt.Sprintf("page %d, head width %d, pos %d, rows %d", pt, hd, pos, rows), want, got)
					}
				}
			}
		}
	})
}

// Prefill attention on the register tiles with every operand ending
// exactly at a guard page: q, out, each K page and V row, the score
// rows, and the transposed K and gathered V panels, each scratch part
// exactly the size the call needs. A tile or a tail that reads or writes
// a vector past any of them crashes the test binary here.
func TestAttendTileGuardPage(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	rng := rand.New(rand.NewSource(65))
	eachAttendLevel(t, func(t *testing.T) {
		for _, hd := range []int{16, 48, 64, 128} {
			for _, group := range []int{1, 3} {
				for _, rows := range []int{9, 13, 40} {
					const pos = 5
					heads := group
					q, kv := attendCase(rng, rows, pos, heads, group, hd, 8)
					want := attendRef(q, kv, pos, heads, group)
					gq := Mat{R: q.R, C: q.C, Data: guarded(t, len(q.Data))}
					copy(gq.Data, q.Data)
					n := pos + rows
					lp, kvDim := tilePositions(n), kv.k.C
					sc := AttendScratch{tile: guarded(t, 6*lp), kt: guarded(t, kvDim*lp), v: guarded(t, kvDim*lp)}
					got := Mat{R: rows, C: q.C, Data: guarded(t, rows*q.C)}
					Attend(gq, guardedKV(t, kv.paged(17)), pos, heads, group, got, &sc)
					assertSameMat(t, fmt.Sprintf("head width %d, group %d, rows %d", hd, group, rows), want, got)
				}
			}
		}
	})
}
