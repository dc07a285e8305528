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

// TestDequantizeIntoMatchesDequantize sweeps group sizes and element
// counts that exercise every group-boundary shape: exact multiples,
// partial tails, single-element tensors, and counts smaller than one
// group.
func TestDequantizeIntoMatchesDequantize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, gs := range []int{2, 6, 64, 100} {
		for _, n := range []int{0, 1, gs - 1, gs, gs + 1, 3*gs + 2} {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			tt, err := Quantize(x, Config{GroupSize: gs})
			if err != nil {
				t.Fatalf("gs=%d n=%d: %v", gs, n, err)
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
				t.Fatalf("gs=%d n=%d: DequantizeInto did not reuse a large-enough dst", gs, n)
			}
		}
	}
}

// otherBlob lays out a GWQ blob the format does not admit — a width
// other than 4 bits, or an odd group size — exactly as the wire format
// would with that header: (n*bits+7)/8 packed bytes, then a finite fp16
// minimum (-8) and scale (1) per group. Quantize can no longer write
// one; readers must refuse it.
func otherBlob(bits, gs, n int) []byte {
	le := binary.LittleEndian
	blob := le.AppendUint32(nil, marshalMagic)
	blob = le.AppendUint32(blob, uint32(bits))
	blob = le.AppendUint32(blob, uint32(gs))
	blob = le.AppendUint64(blob, uint64(n))
	for i := 0; i < (n*bits+7)/8; i++ {
		blob = append(blob, byte(i*37))
	}
	groups := (n + gs - 1) / gs
	for g := 0; g < groups; g++ {
		blob = le.AppendUint16(blob, 0xc800)
	}
	for g := 0; g < groups; g++ {
		blob = le.AppendUint16(blob, 0x3c00)
	}
	return blob
}

// seedBlobs is the decode fuzzers' corpus: the blob of every element
// count that exercises a decode shape, at each configuration — 4-bit
// with even groups (word-wide, byte-wide and odd-element tails) encoded
// by Quantize, and the odd-group, 2- and 8-bit kinds the format refuses
// laid out by otherBlob.
func seedBlobs(f *testing.F) [][]byte {
	var blobs [][]byte
	for _, cfg := range []struct{ bits, gs int }{{4, 64}, {4, 2}, {4, 6}, {4, 128}, {4, 3}, {2, 64}, {8, 6}} {
		for _, n := range []int{0, 1, 63, 64, 65, 200} {
			if cfg.bits != bitsPerElem || cfg.gs%2 != 0 {
				blobs = append(blobs, otherBlob(cfg.bits, cfg.gs, n))
				continue
			}
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(i%17) - 8
			}
			tt, err := Quantize(x, Config{GroupSize: cfg.gs})
			if err != nil {
				f.Fatal(err)
			}
			blob, err := tt.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
	}
	return blobs
}

// wellFormed is the format's definition written out apart from header
// and ParsePacked: the magic, a bits word of 4, a positive even group
// size, exactly the bytes the element count needs (two elements a byte,
// then two halves a group), and every one of those halves finite.
func wellFormed(blob []byte) bool {
	le := binary.LittleEndian
	if len(blob) < 20 || le.Uint32(blob) != marshalMagic || le.Uint32(blob[4:]) != 4 {
		return false
	}
	gs, n := int(le.Uint32(blob[8:])), le.Uint64(blob[12:])
	if gs <= 0 || gs%2 != 0 || n > 2*uint64(len(blob)) {
		return false
	}
	meta := 20 + (n+1)/2
	if uint64(len(blob)) != meta+4*((n+uint64(gs)-1)/uint64(gs)) {
		return false
	}
	for i := int(meta); i < len(blob); i += 2 {
		if le.Uint16(blob[i:])&0x7c00 == 0x7c00 {
			return false
		}
	}
	return true
}

// FuzzDequantizeInto holds Packed.DequantizeInto to the scalar oracle on
// arbitrary blobs, into a destination of any capacity: whatever
// ViewPacked accepts decodes to dequantRef's bits, reusing dst when it
// is large enough; what it rejects is exactly what is not wellFormed —
// the corpus's odd-group, 2- and 8-bit blobs among them.
func FuzzDequantizeInto(f *testing.F) {
	for _, blob := range seedBlobs(f) {
		f.Add(blob, 10)
	}
	f.Fuzz(func(t *testing.T, blob []byte, dstCap int) {
		p, err := ViewPacked(blob)
		if (err == nil) != wellFormed(blob) {
			t.Fatalf("ViewPacked returned %v for a blob wellFormed calls %v", err, wellFormed(blob))
		}
		if err != nil {
			return
		}
		want := dequantRef(blob)
		dst := make([]float32, min(max(dstCap, 0), 1<<20))
		for i := range dst {
			dst[i] = -1e30
		}
		got := p.DequantizeInto(dst)
		assertIdentical(t, "DequantizeInto vs scalar oracle", want, got)
		if len(want) > 0 && len(dst) >= len(want) && &got[0] != &dst[0] {
			t.Fatal("DequantizeInto did not reuse a large-enough dst")
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

// FuzzPackedView holds the packed view to the format's definition and to
// the scalar oracle: ViewPacked accepts exactly the wellFormed blobs —
// the corpus's truncations, overlong and bad-magic blobs, Inf/NaN
// metadata, odd groups and 2- and 8-bit widths are all rejected — and an
// accepted view decodes, whole and in group-aligned ranges, to
// dequantRef's bits. ParsePacked, the view without the metadata scan,
// returns the same view wherever ViewPacked does, and takes what
// ViewPacked rejects only for its metadata.
func FuzzPackedView(f *testing.F) {
	for _, blob := range seedBlobs(f) {
		f.Add(blob)
		if len(blob) > 20 {
			f.Add(blob[:len(blob)-1])                                 // truncated
			f.Add(append(bytes.Clone(blob), 0))                       // overlong
			f.Add(append(bytes.Clone(blob[:len(blob)-1]), 0x7c))      // last scale's exponent all ones
			f.Add(append([]byte{^blob[0]}, bytes.Clone(blob[1:])...)) // bad magic
		}
	}
	f.Fuzz(checkPackedView)
}

// checkPackedView is the property FuzzPackedView and FuzzUnmarshalTensor
// hold every input to.
func checkPackedView(t *testing.T, blob []byte) {
	p, verr := ViewPacked(blob)
	q, qerr := ParsePacked(blob)
	switch {
	case (verr == nil) != wellFormed(blob):
		t.Fatalf("ViewPacked returned %v for a blob wellFormed calls %v", verr, wellFormed(blob))
	case verr == nil && (qerr != nil || !reflect.DeepEqual(p, q)):
		t.Fatalf("ParsePacked (err=%v) differs from ViewPacked's view", qerr)
	case verr != nil && qerr == nil && checkMeta(q.meta, len(q.meta)/4) == nil:
		t.Fatalf("ParsePacked took what ViewPacked rejects for more than its metadata: %v", verr)
	}
	if verr != nil {
		return
	}
	want := dequantRef(blob)
	if gs := int(binary.LittleEndian.Uint32(blob[8:])); p.Len() != len(want) || p.GroupSize() != gs {
		t.Fatalf("view is %d elements in groups of %d, blob %d in %d", p.Len(), p.GroupSize(), len(want), gs)
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
}

// Every header the format refuses is refused by both parsers, whatever
// the layout behind it: the 2- and 8-bit widths laid out as they were
// written and relabelled onto a valid 4-bit layout (the bits word alone
// is wrong), and odd or zero group sizes.
func TestViewRejectsOtherFormats(t *testing.T) {
	tt, err := Quantize([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, Config{GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := tt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	relabel := func(off int, v uint32) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	for name, blob := range map[string][]byte{
		"2-bit":                otherBlob(2, 64, 130),
		"8-bit":                otherBlob(8, 64, 130),
		"8-bit, one element":   otherBlob(8, 6, 1),
		"odd group":            otherBlob(4, 7, 130),
		"relabelled 2-bit":     relabel(4, 2),
		"relabelled 8-bit":     relabel(4, 8),
		"relabelled 0-bit":     relabel(4, 0),
		"relabelled odd group": relabel(8, 5),
		"relabelled group 0":   relabel(8, 0),
	} {
		if _, err := ViewPacked(blob); err == nil {
			t.Errorf("%s: ViewPacked accepted it", name)
		}
		if _, err := ParsePacked(blob); err == nil {
			t.Errorf("%s: ParsePacked accepted it", name)
		}
	}
	if _, err := ViewPacked(valid); err != nil {
		t.Fatalf("the valid blob they were relabelled from: %v", err)
	}
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
// second bad half after it; and ViewPacked rejects exactly the blobs it
// flags. Metadata with every finite exponent
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
			_, verr := ViewPacked(blob)
			for name, err := range map[string]error{"checkMeta": checkMeta(blob[metaAt:], groups), "ViewPacked": verr} {
				if (err != nil) != (want >= 0) {
					t.Errorf("%d groups, %s: %s returned %v with the first non-finite half at %d", groups, what, name, err, want)
				}
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
	p, err := ViewPacked(blob)
	if err != nil {
		t.Fatalf("ViewPacked: %v", err)
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
