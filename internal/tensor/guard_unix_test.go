//go:build unix

package tensor

import (
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

// Every operand of Axpy4 and of both two-row bodies ends exactly at a
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
		Axpy4(o0, a0[0], a0[1], a0[2], a0[3], b[0], b[1], b[2], b[3])
		assertSameMat(t, "axpy4 at a guard page", Mat{R: 1, C: n, Data: want0}, Mat{R: 1, C: n, Data: o0})
	}
	for _, body := range pairBodies() {
		t.Run(body.name, func(t *testing.T) {
			if body.skip != "" {
				t.Skip(body.skip)
			}
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
				body.run(o0, o1, a0, a1, b[0], b[1], b[2], b[3])
				assertSameMat(t, "row 0 at a guard page", Mat{R: 1, C: n, Data: want0}, Mat{R: 1, C: n, Data: o0})
				assertSameMat(t, "row 1 at a guard page", Mat{R: 1, C: n, Data: want1}, Mat{R: 1, C: n, Data: o1})
			}
		})
	}
}
