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
