//go:build unix

package quant

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n bytes whose last one is the last byte before an
// inaccessible page, so reading or writing past the slice faults instead
// of landing in whatever the allocator put next.
func guarded(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	pages := (n+page-1)/page + 1
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
	return mem[guard-n : guard : guard]
}

// The output and the packed run both end exactly at a guard page — as a
// tensor's last group does at the end of an mmap'd checkpoint — so a
// decode that loads eight bytes where fewer remain, or stores a vector
// past the group, crashes the test binary here.
func TestDecode4GuardPage(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range decodeLengths() {
		packed := guarded(t, n/2)
		rng.Read(packed)
		raw := guarded(t, 4*n)
		var out []float32
		if n > 0 {
			out = unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n)
		}
		want := make([]float32, n)
		gmin, scale := Float16(rng.Intn(0x7c00)).Float32(), Float16(rng.Intn(0x7c00)).Float32()
		if got, ref := decode4(out, packed, gmin, scale), decode4Ref(want, packed, gmin, scale); got != ref {
			t.Fatalf("n=%d: decode4 wrote %d elements, reference %d", n, got, ref)
		}
		for i := range want[:n&^1] {
			if !sameBits(want[i], out[i]) {
				t.Fatalf("n=%d: out[%d] = %v, reference %v", n, i, out[i], want[i])
			}
		}
	}
}

// A run of groups whose output, packed bytes, minimums and scales each
// end exactly at a guard page: the last group's metadata is the last two
// bytes of the checkpoint record, so a conversion that loads four bytes
// for a half, or a block loop that runs one group too far, faults here.
func TestDecode4GroupsGuardPage(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, gs := range []int{16, 64, 256} {
		for groups := 1; groups <= 4; groups++ {
			n := gs * groups
			nib, mins, scales := guarded(t, n/2), guarded(t, 2*groups), guarded(t, 2*groups)
			rng.Read(nib)
			for g := 0; g < groups; g++ {
				lo, sc := uint16(rng.Intn(0x7c00))|uint16(rng.Intn(2))<<15, uint16(rng.Intn(0x7c00))
				mins[2*g], mins[2*g+1], scales[2*g], scales[2*g+1] = byte(lo), byte(lo>>8), byte(sc), byte(sc>>8)
			}
			raw := guarded(t, 4*n)
			out := unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n)
			want := make([]float32, n)
			decodeGroups(out, nib, mins, scales, gs)
			decodeGroupsOracle(want, nib, mins, scales, gs)
			for i := range want {
				if !sameBits(want[i], out[i]) {
					t.Fatalf("gs=%d groups=%d: out[%d] = %v, oracle %v", gs, groups, i, out[i], want[i])
				}
			}
		}
	}
}

// A chunk of one to eight rows whose output, nibbles and last-row
// minimums and scales each end exactly at a guard page — the last row's
// last group is the last of the tensor, its halves the last bytes of the
// record — so a block or panel loop that runs one block or one group too
// far, an eight-byte load past the row, or a half loaded four bytes wide
// faults here.
func TestAxpyRowsGuardPage(t *testing.T) {
	eachAxpyBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(78))
		for _, gs := range []int{16, 48, 64, 256} {
			for _, k := range []int{1, 4, 5, 8} {
				for groups := 1; groups <= 4; groups++ {
					for tiles := 1; tiles <= 2; tiles++ {
						lo := (tiles - 1) * gs
						r := rows{k: k, gs: gs, groups: groups, stride: lo + tiles*gs*groups, lo: lo}
						r.nib = guarded(t, r.nibLen())
						rng.Read(r.nib)
						r.mins, r.scales = guarded(t, r.metaLen()), guarded(t, r.metaLen())
						for i := 0; i < len(r.mins); i += 2 {
							mn, sc := uint16(rng.Intn(0x7c00))|uint16(rng.Intn(2))<<15, uint16(rng.Intn(0x7c00))
							r.mins[i], r.mins[i+1], r.scales[i], r.scales[i+1] = byte(mn), byte(mn>>8), byte(sc), byte(sc>>8)
						}
						n := r.width()
						raw := guarded(t, 4*n)
						out := unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n)
						want := make([]float32, n)
						for i := range want {
							want[i] = float32(rng.NormFloat64())
						}
						copy(out, want)
						x := []float32{0.5, -2, 3, 0.25, -1, 1.5, -0.75, 2}[:k]
						r.call(gemv, out, x)
						gemvOracle(want, r, x)
						for i := range want {
							if !sameBits(want[i], out[i]) {
								t.Fatalf("gs=%d k=%d groups=%d tiles=%d: out[%d] = %v, oracle %v", gs, k, groups, tiles, i, out[i], want[i])
							}
						}
					}
				}
			}
		}
	})
}

// afterGuard returns n bytes whose first one is the first byte after an
// inaccessible page, so reading before the slice faults.
func afterGuard(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	pages := (n+page-1)/page + 1
	mem, err := syscall.Mmap(-1, 0, pages*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem[page : page+n : page+n]
}

// The transposed GEMV reads each row's metadata with dword gathers, so
// each read takes a neighbouring half along: the scale's gather reads the
// two bytes before it, the minimum's the two after. Against a serialized
// table that ends at a guard page — the last row's last scale is the
// record's final two bytes — every block, the last one included, must
// read nothing past the end; against a metadata block and nibbles that
// each start right after a guard page, the first block must read
// nothing before them. The output and the activations end at a guard
// page too.
func TestGemvTGuardPage(t *testing.T) {
	eachBody(t, gemvTBodies, func(t *testing.T) {
		rng := rand.New(rand.NewSource(85))
		for _, s := range []struct{ n, k, gs int }{{16, 64, 64}, {32, 384, 64}, {17, 48, 16}, {48, 16, 8}} {
			for _, rows := range []int{1, 3, 8} {
				blob := blobOf(t, rng, s.n*s.k, s.gs)
				end := guarded(t, len(blob))
				copy(end, blob)
				p, err := ViewPacked(end)
				if err != nil {
					t.Fatal(err)
				}
				x := guardedFloats(t, rows*s.k)
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				o := guardedFloats(t, (rows-1)*s.n+GemvTRows)
				want := make([]float32, len(o))
				for j := 0; j+GemvTRows <= s.n; j++ {
					clear(o)
					clear(want)
					p.GemvT(o, s.n, x, s.k, j)
					tb := table{nib: p.nib, meta: p.meta, n: s.n, k: s.k, gs: s.gs}
					gemvTOracle(want, s.n, x, tb, j)
					for i := range want {
						if !sameBits(want[i], o[i]) {
							t.Fatalf("%dx%d gs=%d rows=%d j=%d: o[%d] = %v, oracle %v", s.n, s.k, s.gs, rows, j, i, o[i], want[i])
						}
					}
				}
				// The first block, its nibbles and metadata each right
				// after a guard page.
				tb := table{nib: afterGuard(t, len(p.nib)), meta: afterGuard(t, len(p.meta)), n: s.n, k: s.k, gs: s.gs}
				copy(tb.nib, p.nib)
				copy(tb.meta, p.meta)
				clear(o)
				clear(want)
				tb.call(gemvT, o, s.n, x, 0)
				gemvTOracle(want, s.n, x, tb, 0)
				for i := range want {
					if !sameBits(want[i], o[i]) {
						t.Fatalf("%dx%d gs=%d rows=%d after a guard page: o[%d] = %v, oracle %v", s.n, s.k, s.gs, rows, i, o[i], want[i])
					}
				}
			}
		}
	})
}

// guardedFloats is guarded for n float32s.
func guardedFloats(t *testing.T, n int) []float32 {
	t.Helper()
	raw := guarded(t, 4*n)
	return unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n)
}
