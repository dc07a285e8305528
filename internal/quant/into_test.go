package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"helmsim/internal/parallel"
)

// TestDequantizeIntoMatchesDequantize sweeps bit widths, group sizes,
// and element counts that exercise every group-boundary shape: exact
// multiples, partial tails, single-element tensors, and counts smaller
// than one group.
func TestDequantizeIntoMatchesDequantize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []int{2, 4, 8} {
		for _, gs := range []int{1, 3, 64, 100} {
			for _, n := range []int{0, 1, gs - 1, gs, gs + 1, 3*gs + 2} {
				if n < 0 {
					continue
				}
				x := make([]float32, n)
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				tt, err := Quantize(x, Config{Bits: bits, GroupSize: gs})
				if err != nil {
					t.Fatalf("bits=%d gs=%d n=%d: %v", bits, gs, n, err)
				}
				want := tt.Dequantize()

				// Undersized dst: must allocate, not clobber or truncate.
				small := make([]float32, 0, n/2)
				got := tt.DequantizeInto(small)
				assertIdentical(t, "undersized dst", want, got)

				// Oversized dirty dst: must reuse the buffer in place.
				big := make([]float32, n+5)
				for i := range big {
					big[i] = 42
				}
				got = tt.DequantizeInto(big)
				assertIdentical(t, "oversized dst", want, got)
				if n > 0 && &got[0] != &big[0] {
					t.Fatalf("bits=%d gs=%d n=%d: DequantizeInto did not reuse a large-enough dst", bits, gs, n)
				}
			}
		}
	}
}

func TestUnmarshalBinaryViewMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := make([]float32, 1000)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	orig, err := Quantize(x, Default())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var copied, viewed Tensor
	if err := copied.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := viewed.UnmarshalBinaryView(blob); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "view vs copy", copied.Dequantize(), viewed.Dequantize())

	// The view must alias the blob's packed region, not copy it.
	if len(viewed.packed) > 0 && &viewed.packed[0] != &blob[20] {
		t.Fatal("UnmarshalBinaryView copied the packed bytes")
	}
	// Reusing the same tensor for another view must recycle the fp16
	// metadata storage instead of reallocating it.
	mins := &viewed.mins[0]
	if err := viewed.UnmarshalBinaryView(blob); err != nil {
		t.Fatal(err)
	}
	if &viewed.mins[0] != mins {
		t.Fatal("UnmarshalBinaryView reallocated metadata despite sufficient capacity")
	}

	// Corrupting the blob after a view decode must show through (it is a
	// view), proving no hidden copy; a fresh copy-decode must not.
	before := viewed.Dequantize()[0]
	blob[20] ^= 0xff
	after := viewed.Dequantize()[0]
	if viewed.cfg.Bits != 0 && before == after && x[0] != 0 {
		t.Log("first element insensitive to packed bit flip (possible but unlikely); skipping aliasing assertion")
	}
	assertIdentical(t, "copy unaffected by later blob mutation", copied.Dequantize(), orig.Dequantize())
}

// FuzzDequantizeInto cross-checks DequantizeInto against Dequantize, and
// both against the scalar oracle, on arbitrary marshaled tensors,
// including hostile ones from the fuzzer — whatever UnmarshalBinary
// accepts must decode identically all three ways.
func FuzzDequantizeInto(f *testing.F) {
	// Seeds on both sides of the decode's path choice: the 4-bit table
	// kernel (even groups; word-wide, byte-wide and odd-element tails)
	// and the generic loop (odd groups, 2- and 8-bit).
	for _, cfg := range []Config{{4, 64}, {4, 2}, {4, 6}, {4, 128}, {4, 3}, {2, 64}, {8, 6}} {
		for _, n := range []int{0, 1, 63, 64, 65, 200} {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(i%17) - 8
			}
			tt, err := Quantize(x, cfg)
			if err != nil {
				f.Fatal(err)
			}
			blob, err := tt.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob, 10)
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte, dstCap int) {
		var tt Tensor
		if err := tt.UnmarshalBinary(blob); err != nil {
			t.Skip()
		}
		want := tt.Dequantize()
		assertIdentical(t, "Dequantize vs scalar oracle", dequantRef(&tt), want)
		if dstCap < 0 {
			dstCap = 0
		}
		if dstCap > 1<<20 {
			dstCap = 1 << 20
		}
		dst := make([]float32, dstCap)
		for i := range dst {
			dst[i] = -1e30
		}
		got := tt.DequantizeInto(dst)
		if len(got) != len(want) {
			t.Fatalf("DequantizeInto len %d, Dequantize len %d", len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("element %d: %v vs %v", i, got[i], want[i])
			}
		}
	})
}

func assertIdentical(t *testing.T, name string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: len %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x): must be bit-identical", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// FuzzPackedView holds the packed view to the decoder it stands in for.
// Whatever UnmarshalBinaryView accepts, ViewPacked accepts or reports as
// not packable (by the header's own width, as HeaderPackable predicts),
// and an accepted view decodes — whole, and in group-aligned ranges — to
// DequantizeInto's bits; whatever the decoder rejects (truncation, bad
// magic, Inf/NaN metadata, length mismatch) the view rejects too.
// ParsePacked, the view without the metadata scan, returns the same view
// wherever ViewPacked does, and takes what ViewPacked rejects only for
// its metadata.
func FuzzPackedView(f *testing.F) {
	for _, cfg := range []Config{{4, 64}, {4, 2}, {4, 6}, {4, 128}, {4, 3}, {2, 64}, {8, 6}} {
		for _, n := range []int{0, 1, 63, 64, 65, 200} {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(i%17) - 8
			}
			tt, err := Quantize(x, cfg)
			if err != nil {
				f.Fatal(err)
			}
			blob, err := tt.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
			if len(blob) > 20 {
				f.Add(blob[:len(blob)-1])                                 // truncated
				f.Add(append(bytes.Clone(blob), 0))                       // overlong
				f.Add(append(bytes.Clone(blob[:len(blob)-1]), 0x7c))      // last scale's exponent all ones
				f.Add(append([]byte{^blob[0]}, bytes.Clone(blob[1:])...)) // bad magic
			}
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var tt Tensor
		uerr := tt.UnmarshalBinaryView(blob)
		p, ok, verr := ViewPacked(blob)
		q, qok, qerr := ParsePacked(blob)
		switch {
		case verr == nil && (qerr != nil || qok != ok || !reflect.DeepEqual(p, q)):
			t.Fatalf("ParsePacked (ok=%v, err=%v) differs from ViewPacked's view (ok=%v)", qok, qerr, ok)
		case verr != nil && qerr == nil && (!qok || checkMeta(q.meta, len(q.meta)/4) == nil):
			t.Fatalf("ParsePacked (ok=%v) took what ViewPacked rejects for more than its metadata: %v", qok, verr)
		}
		if uerr != nil {
			// A width the view cannot represent may stop it at "not
			// packable" before the check the decoder failed; a 4-bit blob
			// the decoder rejects is an error from the view too.
			if ok || (verr == nil && HeaderPackable(blob)) {
				t.Fatalf("ViewPacked (ok=%v, err=%v) took what UnmarshalBinaryView rejects: %v", ok, verr, uerr)
			}
			return
		}
		if verr != nil {
			t.Fatalf("ViewPacked rejected what UnmarshalBinaryView accepts: %v", verr)
		}
		packable := tt.cfg.Bits == 4 && tt.cfg.GroupSize%2 == 0
		if ok != packable || HeaderPackable(blob) != packable {
			t.Fatalf("packable: view %v, header %v, want %v for %+v", ok, HeaderPackable(blob), packable, tt.cfg)
		}
		if !ok {
			return
		}
		want := tt.DequantizeInto(nil)
		if p.Len() != len(want) || p.GroupSize() != tt.cfg.GroupSize {
			t.Fatalf("view is %d elements in groups of %d, tensor %d in %d", p.Len(), p.GroupSize(), len(want), tt.cfg.GroupSize)
		}
		assertIdentical(t, "Packed.DequantizeInto", want, p.DequantizeInto(nil))
		// One group at a time, into a poisoned buffer.
		got := make([]float32, len(want))
		for i := range got {
			got[i] = -1e30
		}
		for lo := 0; lo < len(got); lo += p.GroupSize() {
			p.DecodeRange(got[lo:min(lo+p.GroupSize(), len(got))], lo)
		}
		assertIdentical(t, "DecodeRange by group", want, got)
	})
}

// firstNonFiniteScalar is the half-at-a-time loop firstNonFinite
// replaced: the oracle for which half a metadata error names.
func firstNonFiniteScalar(meta []byte) int {
	for h := 0; 2*h+2 <= len(meta); h++ {
		if !finite16(Float16(binary.LittleEndian.Uint16(meta[2*h:]))) {
			return h
		}
	}
	return -1
}

// The word-at-a-time metadata check finds the same first offender as the
// scalar loop, wherever an Inf or NaN half sits: every position of the
// first words, the tail behind the last whole word, with and without a
// second bad half after it; and ViewPacked and both unmarshal forms
// reject exactly the blobs it flags. Metadata with every finite exponent
// (0x7bff: the largest half, one below the flagged pattern) passes.
func TestMetadataCheckNamesFirstNonFinite(t *testing.T) {
	for _, groups := range []int{5, 7, 8} { // 10, 14, 16 halves: tails of 2, 2 and 0
		x := make([]float32, 64*groups)
		for i := range x {
			x[i] = float32(i%23) - 11
		}
		tt, err := Quantize(x, Default())
		if err != nil {
			t.Fatal(err)
		}
		clean, err := tt.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		metaAt := len(clean) - 4*groups
		check := func(what string, blob []byte) {
			t.Helper()
			want := firstNonFiniteScalar(blob[metaAt:])
			if got := firstNonFinite(blob[metaAt:]); got != want {
				t.Errorf("%d groups, %s: first non-finite half %d, the scalar loop finds %d", groups, what, got, want)
			}
			_, ok, verr := ViewPacked(blob)
			var a, b Tensor
			for name, err := range map[string]error{
				"checkMeta": checkMeta(blob[metaAt:], groups), "ViewPacked": verr,
				"UnmarshalBinary": a.UnmarshalBinary(blob), "UnmarshalBinaryView": b.UnmarshalBinaryView(blob),
			} {
				if (err != nil) != (want >= 0) {
					t.Errorf("%d groups, %s: %s returned %v with the first non-finite half at %d", groups, what, name, err, want)
				}
			}
			if ok != (want < 0) {
				t.Errorf("%d groups, %s: ViewPacked ok=%v with the first non-finite half at %d", groups, what, ok, want)
			}
		}
		check("clean", clean)
		finite := bytes.Clone(clean)
		for h := 0; h < 2*groups; h++ {
			binary.LittleEndian.PutUint16(finite[metaAt+2*h:], 0x7bff|uint16(h&1)<<15)
		}
		check("every half ±65504", finite)
		for h := 0; h < 2*groups; h++ {
			for _, bad := range []uint16{0x7c00, 0xfc00, 0x7e01, 0xffff} {
				blob := bytes.Clone(finite)
				binary.LittleEndian.PutUint16(blob[metaAt+2*h:], bad)
				check(fmt.Sprintf("half %d = %#04x", h, bad), blob)
				if h+3 < 2*groups {
					binary.LittleEndian.PutUint16(blob[metaAt+2*(h+3):], 0x7c00)
					check(fmt.Sprintf("halves %d and %d", h, h+3), blob)
				}
			}
		}
	}
}

// A decode wide enough to fork must not allocate when it does: both
// DequantizeInto forms hand the pool a body bound once, not a func
// literal per call (which cost a heap object per packed tensor per
// prefill). Counted from the runtime's malloc counter at two workers on
// two processors, because testing.AllocsPerRun drops GOMAXPROCS to 1 and
// so never lets a pool worker in.
func TestDequantizeIntoForkedAllocsZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer parallel.Set(parallel.Set(2))
	x := make([]float32, 384*1536)
	for i := range x {
		x[i] = float32(i%509)/509 - 0.5
	}
	tt, err := Quantize(x, Default())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := tt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p, ok, err := ViewPacked(blob)
	if err != nil || !ok {
		t.Fatalf("ViewPacked: ok=%v err=%v", ok, err)
	}
	dst := make([]float32, len(x))
	for name, decode := range map[string]func(){
		"Tensor": func() { dst = tt.DequantizeInto(dst) },
		"Packed": func() { dst = p.DequantizeInto(dst) },
	} {
		decode()
		// The counter is process-wide: a stray runtime allocation lands in
		// one window, a per-call one in all of them.
		best := ^uint64(0)
		for try := 0; try < 3; try++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 10; i++ {
				decode()
			}
			runtime.ReadMemStats(&m1)
			best = min(best, m1.Mallocs-m0.Mallocs)
		}
		if best != 0 {
			t.Errorf("%s.DequantizeInto allocates %.1f objects/call when it forks, want 0", name, float64(best)/10)
		}
	}
}
