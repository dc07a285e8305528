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

// One k-quad whose output, nibbles and fourth-row minimums and scales
// each end exactly at a guard page — the fourth row's last group is the
// last of the tensor, its halves the last bytes of the record — so a
// block loop that runs one block or one group too far, an eight-byte
// load past the row, or a half loaded four bytes wide faults here.
func TestAxpyRowsGuardPage(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, gs := range []int{16, 64, 256} {
		for groups := 1; groups <= 4; groups++ {
			for tiles := 1; tiles <= 2; tiles++ {
				r := rows{gs: gs, groups: groups, stride: tiles * gs * groups}
				r.nib = guarded(t, 3*r.nibStride()+groups*gs/2)
				rng.Read(r.nib)
				r.mins, r.scales = guarded(t, 3*r.metaStride()+2*groups), guarded(t, 3*r.metaStride()+2*groups)
				for i := 0; i < len(r.mins); i += 2 {
					lo, sc := uint16(rng.Intn(0x7c00))|uint16(rng.Intn(2))<<15, uint16(rng.Intn(0x7c00))
					r.mins[i], r.mins[i+1], r.scales[i], r.scales[i+1] = byte(lo), byte(lo>>8), byte(sc), byte(sc>>8)
				}
				n := gs * groups
				raw := guarded(t, 4*n)
				out := unsafe.Slice((*float32)(unsafe.Pointer(&raw[0])), n)
				want := make([]float32, n)
				for i := range want {
					want[i] = float32(rng.NormFloat64())
				}
				copy(out, want)
				a := [4]float32{0.5, -2, 3, 0.25}
				axpyRows(out, r.nib, r.mins, r.scales, gs, r.nibStride(), r.metaStride(), a[0], a[1], a[2], a[3])
				axpyRowsOracle(want, r, a)
				for i := range want {
					if !sameBits(want[i], out[i]) {
						t.Fatalf("gs=%d groups=%d tiles=%d: out[%d] = %v, oracle %v", gs, groups, tiles, i, out[i], want[i])
					}
				}
			}
		}
	}
}
