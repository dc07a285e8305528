package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helmsim/internal/quant"
)

// mmapFixture writes a v2 checkpoint with one raw and one quantized
// tensor to disk and returns the path.
func mmapFixture(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "mm", 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	raw := make([]float32, 50)
	for i := range raw {
		raw[i] = float32(rng.NormFloat64())
	}
	if err := w.WriteRaw("raw", raw); err != nil {
		t.Fatal(err)
	}
	qv := make([]float32, 300)
	for i := range qv {
		qv[i] = float32(rng.NormFloat64())
	}
	qt, err := quant.Quantize(qv, quant.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteQuantized("quantized", qt); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mm.hlmc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The mmap-backed index must decode every tensor bit-identically to the
// ReadAt-backed one.
func TestOpenIndexedMmapMatchesReadAt(t *testing.T) {
	path := mmapFixture(t)
	plain, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	mapped, err := OpenIndexedMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	if plain.Mapped() {
		t.Fatal("plain OpenIndexed claims to be mapped")
	}
	if mapped.Mapped() != MmapSupported() {
		t.Fatalf("Mapped() = %v, MmapSupported() = %v", mapped.Mapped(), MmapSupported())
	}
	for _, name := range plain.Names() {
		want, err := plain.ReadTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mapped.ReadTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("%s: len %d vs %d", name, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: element %d differs: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
	if err := mapped.Verify(); err != nil {
		t.Fatalf("Verify over mmap: %v", err)
	}
}

// CRC verification must still run on the zero-copy path: a payload bit
// flip on disk surfaces as ErrCorrupt through the mapping.
func TestMmapReadVerifiesCRC(t *testing.T) {
	path := mmapFixture(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-3] ^= 0x20 // tail of the last record's payload
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndexedMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.ReadTensor("quantized"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt mmap read err = %v, want ErrCorrupt", err)
	}
	if _, err := ix.ReadTensor("raw"); err != nil {
		t.Fatalf("clean record through mmap: %v", err)
	}
}

// ReadSlotInto must reuse a large-enough caller buffer and allocate
// otherwise; the decoded values must never alias the file mapping (it is
// decoded from fp16/quantized bytes, so byte-level aliasing is
// structurally impossible — assert the buffer-reuse contract instead).
func TestReadTensorIntoReusesBuffer(t *testing.T) {
	path := mmapFixture(t)
	ix, err := OpenIndexedMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	ref, err := ix.ReadTensor("quantized")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, len(ref)+7)
	for i := range buf {
		buf[i] = 1e30
	}
	slot, err := ix.slotOf("quantized")
	if err != nil {
		t.Fatal(err)
	}
	e, err := ix.ReadSlotInto(slot, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &e[0] != &buf[0] {
		t.Fatal("ReadSlotInto did not decode into the caller's buffer")
	}
	for i := range ref {
		if e[i] != ref[i] {
			t.Fatalf("element %d: %v vs %v", i, e[i], ref[i])
		}
	}
	small := make([]float32, 1)
	e2, err := ix.ReadSlotInto(slot, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2) != len(ref) {
		t.Fatalf("undersized dst: len %d, want %d", len(e2), len(ref))
	}
}

// The MappedFile itself honors ReaderAt and Close semantics so Indexed
// and fault wrappers can treat it like a file.
func TestMappedFileSemantics(t *testing.T) {
	path := mmapFixture(t)
	mf, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()
	if mf.Mapped() != MmapSupported() {
		t.Fatalf("Mapped() = %v, MmapSupported() = %v", mf.Mapped(), MmapSupported())
	}
	p := make([]byte, 4)
	if n, err := mf.ReadAt(p, 0); err != nil || n != 4 {
		t.Fatalf("ReadAt head: n=%d err=%v", n, err)
	}
	if n, err := mf.ReadAt(p, size-2); n != 2 || err != io.EOF {
		t.Fatalf("ReadAt straddling EOF: n=%d err=%v, want 2, io.EOF", n, err)
	}
	if _, err := mf.ReadAt(p, size+10); err != io.EOF {
		t.Fatalf("ReadAt past EOF err = %v, want io.EOF", err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if mf.Bytes() != nil {
		t.Error("Bytes() non-nil after Close")
	}
	if _, err := mf.ReadAt(p, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after Close err = %v, want ErrClosed", err)
	}
}

// A closed mmap index reports typed ErrClosed like the plain one.
func TestMmapClosedIsTyped(t *testing.T) {
	path := mmapFixture(t)
	ix, err := OpenIndexedMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ReadTensor("raw"); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v, want ErrClosed", err)
	}
}

// ReadPacked on both index flavours: the view decodes to the bits
// ReadTensor decodes, records with no packed form say so without being
// read, and the view gets the checks every read gets — a flipped payload
// bit is ErrCorrupt, a closed index ErrClosed.
func TestReadPackedBothFlavours(t *testing.T) {
	path := mmapFixture(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func(string) (*Indexed, error)
	}{
		{"readat", OpenIndexed},
		{"mmap", OpenIndexedMmap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := tc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ix.ReadTensor("quantized")
			if err != nil {
				t.Fatal(err)
			}
			p, ok, err := ix.ReadPacked("quantized")
			if err != nil || !ok {
				t.Fatalf("ReadPacked(quantized): ok=%v err=%v", ok, err)
			}
			got := p.DequantizeInto(nil)
			if len(got) != len(want) {
				t.Fatalf("view has %d elements, want %d", len(got), len(want))
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("element %d: view %v, decode %v", i, got[i], want[i])
				}
			}
			if _, ok, err := ix.ReadPacked("raw"); ok || err != nil {
				t.Fatalf("ReadPacked(raw): ok=%v err=%v, want not packable", ok, err)
			}
			if _, _, err := ix.ReadPacked("absent"); err == nil {
				t.Fatal("ReadPacked of a missing tensor succeeded")
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ix.ReadPacked("quantized"); !errors.Is(err, ErrClosed) {
				t.Fatalf("ReadPacked after Close err = %v, want ErrClosed", err)
			}

			bad := filepath.Join(t.TempDir(), "bad.hlmc")
			flipped := append([]byte(nil), blob...)
			flipped[len(flipped)-3] ^= 0x20 // tail of the quantized record's payload
			if err := os.WriteFile(bad, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			bx, err := tc.open(bad)
			if err != nil {
				t.Fatal(err)
			}
			defer bx.Close()
			if _, _, err := bx.ReadPacked("quantized"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadPacked of a flipped record err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// otherGWQ lays out a quantized payload of a kind the format refuses —
// a width other than 4 bits, or an odd group size — as the wire format
// would with that header: (n*bits+7)/8 packed bytes, then a finite fp16
// minimum and scale per group. quant.Quantize cannot write one.
func otherGWQ(bits, gs, n int) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 0x47575134) // "GWQ4"
	b = le.AppendUint32(b, uint32(bits))
	b = le.AppendUint32(b, uint32(gs))
	b = le.AppendUint64(b, uint64(n))
	for i := 0; i < (n*bits+7)/8; i++ {
		b = append(b, byte(i*37))
	}
	for h := 0; h < 2*((n+gs-1)/gs); h++ {
		b = le.AppendUint16(b, 0x3c00)
	}
	return b
}

// A quantized record of any kind but 4-bit with even groups is corrupt,
// over pread and mmap alike: the packed fetch, the decoding fetch and
// Verify each fail with ErrCorrupt — at every fetch, a failed one marks
// nothing verified — and never decode it some other way. The relabelled record is a valid 4-bit payload whose bits word
// alone says 8.
func TestReadRejectsOtherWidths(t *testing.T) {
	qt, err := quant.Quantize(make([]float32, 130), quant.Default())
	if err != nil {
		t.Fatal(err)
	}
	relabelled, err := qt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(relabelled[4:], 8)
	for name, payload := range map[string][]byte{
		"eight":      otherGWQ(8, 64, 130),
		"two":        otherGWQ(2, 64, 130),
		"odd":        otherGWQ(4, 7, 130),
		"relabelled": relabelled,
	} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "widths", 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRaw("raw", []float32{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := w.writeEntry(name, KindGWQ, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".hlmc")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, open := range []struct {
			flavour string
			open    func(string) (*Indexed, error)
		}{{"readat", OpenIndexed}, {"mmap", OpenIndexedMmap}} {
			ix, err := open.open(path)
			if err != nil {
				t.Fatalf("%s/%s: open: %v", name, open.flavour, err)
			}
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s/%s: %s: %v, want ErrCorrupt", name, open.flavour, what, err)
				} else if !strings.Contains(err.Error(), fmt.Sprintf("tensor %q", name)) {
					t.Errorf("%s/%s: %s: %v does not name the tensor", name, open.flavour, what, err)
				}
			}
			for range 2 {
				_, ok, err := ix.ReadSlotPacked(1)
				check("ReadSlotPacked", err)
				if ok {
					t.Errorf("%s/%s: ReadSlotPacked reported a view", name, open.flavour)
				}
				_, err = ix.ReadSlotInto(1, nil)
				check("ReadSlotInto", err)
			}
			check("Verify", ix.Verify())
			if v, err := ix.ReadSlotInto(0, nil); err != nil || len(v) != 3 {
				t.Errorf("%s/%s: the raw record beside it: %v, %v", name, open.flavour, v, err)
			}
			ix.Close()
		}
	}
}
