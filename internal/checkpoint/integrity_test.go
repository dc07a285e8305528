package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"helmsim/internal/quant"
)

// writeV1 hand-encodes a legacy (version 1, no CRC) checkpoint so the
// compatibility path is tested against real old-format bytes, not
// against whatever the current writer happens to emit.
func writeV1(modelName string, tensors []struct {
	name string
	data []float32
}) []byte {
	le := binary.LittleEndian
	var out []byte
	out = le.AppendUint32(out, magic)
	out = le.AppendUint32(out, versionNoCRC)
	out = le.AppendUint16(out, uint16(len(modelName)))
	out = append(out, modelName...)
	out = le.AppendUint32(out, uint32(len(tensors)))
	for _, t := range tensors {
		out = le.AppendUint16(out, uint16(len(t.name)))
		out = append(out, t.name...)
		out = append(out, byte(KindRawFP16))
		out = le.AppendUint64(out, uint64(2*len(t.data)))
		for _, v := range t.data {
			out = le.AppendUint16(out, uint16(quant.ToFloat16(v)))
		}
	}
	return out
}

// The writer now emits version 2; version-1 files must still index and
// read (minus integrity checking).
func TestV1CheckpointsStillLoad(t *testing.T) {
	blob := writeV1("old-model", []struct {
		name string
		data []float32
	}{
		{"L000/w_token", []float32{1, 2, 3, 4}},
		{"L001/w_q", []float32{0.5, -0.5}},
	})

	ix, err := NewIndexed(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Version() != 1 {
		t.Errorf("version = %d, want 1", ix.Version())
	}
	if ix.ModelName() != "old-model" {
		t.Errorf("model = %q", ix.ModelName())
	}
	if names := ix.Names(); len(names) != 2 || names[0] != "L000/w_token" || names[1] != "L001/w_q" {
		t.Fatalf("names = %q", names)
	}
	got, err := ix.ReadTensor("L000/w_token")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[2] != 3 {
		t.Fatalf("v1 read of L000/w_token = %v", got)
	}
	if got, err = ix.ReadTensor("L001/w_q"); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.5 || got[1] != -0.5 {
		t.Fatalf("v1 read of L001/w_q = %v", got)
	}
}

// v2Checkpoint builds a two-tensor version-2 checkpoint and returns its
// bytes and the byte offset where the first record starts.
func v2Checkpoint(t *testing.T) (blob []byte, recordStart int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "m2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRaw("alpha", []float32{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	qt, err := quant.Quantize(make([]float32, 256), quant.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteQuantized("beta", qt); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), 10 + len("m2") + 4
}

// The index computes each record's header CRC once, at open, from the
// bytes it scanned, and continues it over the payload at every read.
// Every single-bit flip inside a record — header bytes, CRC field, or
// payload — must still make NewIndexed reject the file or make a read of
// one of the flipped index's own records fail typed ErrCorrupt, over a
// ReaderAt and over a mapping. The unflipped file must read back clean,
// or a read that fails on everything would pass for detection.
func TestIndexedCRCDetectsEveryRecordFlip(t *testing.T) {
	blob, start := v2Checkpoint(t)
	for _, tc := range []struct {
		name string
		open func(t *testing.T, path string, b []byte) (*Indexed, error)
	}{
		{"readat", func(_ *testing.T, _ string, b []byte) (*Indexed, error) { return NewIndexed(bytes.NewReader(b)) }},
		{"mmap", func(t *testing.T, path string, b []byte) (*Indexed, error) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return OpenIndexedMmap(path)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "mmap" && !MmapSupported() {
				t.Skip("no mmap on this platform")
			}
			path := filepath.Join(t.TempDir(), "flip.hlmc")
			// readAll reports whether a read of some record failed; every
			// failure must be typed ErrCorrupt.
			readAll := func(ix *Indexed, what string) (sawCorrupt bool) {
				for _, name := range ix.Names() {
					if _, err := ix.ReadTensor(name); err != nil {
						if !errors.Is(err, ErrCorrupt) {
							t.Fatalf("%s: %s: error not typed ErrCorrupt: %v", what, name, err)
						}
						sawCorrupt = true
					}
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				return sawCorrupt
			}
			ix, err := tc.open(t, path, blob)
			if err != nil {
				t.Fatal(err)
			}
			if readAll(ix, "clean checkpoint") {
				t.Fatal("the clean checkpoint reads back corrupt")
			}
			for pos := start; pos < len(blob); pos++ {
				for bit := range 8 {
					bad := bytes.Clone(blob)
					bad[pos] ^= 1 << bit
					ix, err := tc.open(t, path, bad)
					if err != nil {
						continue
					}
					if what := fmt.Sprintf("flip of bit %d at byte %d", bit, pos); !readAll(ix, what) {
						t.Fatalf("%s: every record read back clean", what)
					}
				}
			}
		})
	}
}

// Truncating the file anywhere inside the record region must also be
// typed corruption: the index rejects it at open, or a read of one of
// its records fails.
func TestCRCDetectsTruncation(t *testing.T) {
	blob, start := v2Checkpoint(t)
	for _, cut := range []int{start + 1, start + 10, len(blob) - 1, len(blob) - 7} {
		ix, err := NewIndexed(bytes.NewReader(blob[:cut]))
		if err == nil {
			err = ix.Verify()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// The indexed reader must verify CRCs per ReadTensor: corrupt the
// payload bytes after indexing and the read fails typed.
func TestIndexedReadVerifiesCRC(t *testing.T) {
	blob, _ := v2Checkpoint(t)
	ix, err := NewIndexed(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Version() != 2 {
		t.Fatalf("version = %d, want 2", ix.Version())
	}
	if _, err := ix.ReadTensor("alpha"); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the last record (payloads are at the tail
	// of each record, so the final bytes belong to "beta").
	bad := append([]byte(nil), blob...)
	bad[len(bad)-3] ^= 0x01
	ix2, err := NewIndexed(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix2.ReadTensor("beta")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted payload read err = %v, want ErrCorrupt", err)
	}
	// The untouched record still reads.
	if _, err := ix2.ReadTensor("alpha"); err != nil {
		t.Fatalf("clean record failed: %v", err)
	}
}

// Operations on a closed Indexed fail with the typed ErrClosed, not a
// raw os file error, and Close is idempotent.
func TestIndexedClosedIsTyped(t *testing.T) {
	blob, _ := v2Checkpoint(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "m2.hlmc")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ReadTensor("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	_, err = ix.ReadTensor("alpha")
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v, want ErrClosed", err)
	}
	if errors.Is(err, os.ErrClosed) {
		t.Errorf("raw os error leaked: %v", err)
	}
}

// Verify is the pre-swap health check of the reload path: it passes on
// a clean checkpoint, catches a bit flip anywhere in the record region
// as typed ErrCorrupt, and reports ErrClosed after Close.
func TestVerifyCatchesCorruptionAndClose(t *testing.T) {
	blob, start := v2Checkpoint(t)
	ix, err := NewIndexed(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); err != nil {
		t.Fatalf("clean checkpoint failed verification: %v", err)
	}
	// Repeatable: verification reads leave the index usable.
	if err := ix.Verify(); err != nil {
		t.Fatalf("second verification failed: %v", err)
	}
	for _, pos := range []int{start + 3, (start + len(blob)) / 2, len(blob) - 2} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x08
		bx, err := NewIndexed(bytes.NewReader(bad))
		if err != nil {
			// Directory-region flips can fail at indexing; that must be
			// typed corruption too.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: indexing err not typed: %v", pos, err)
			}
			continue
		}
		if err := bx.Verify(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: Verify err = %v, want ErrCorrupt", pos, err)
		}
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(); !errors.Is(err, ErrClosed) {
		t.Errorf("Verify after Close = %v, want ErrClosed", err)
	}
}

// Verify decodes every record into one reused buffer, so what it
// allocates for decoded values does not grow with the record count: 28
// more records of 64 KiB each must cost far less than their decoded size
// (per-record bookkeeping — the entry, the fp16 group metadata — is the
// only thing that scales).
func TestVerifyDecodeBufferDoesNotGrowWithRecords(t *testing.T) {
	const elems = 16 << 10
	verifyBytes := func(records int) uint64 {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "v", records)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float32, elems)
		for i := range x {
			x[i] = float32(i%251) / 251
		}
		qt, err := quant.Quantize(x, quant.Default())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if err := w.WriteQuantized(string(rune('A'+i)), qt); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "v.hlmc")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := OpenIndexedMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := ix.Verify(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	few, many := verifyBytes(4), verifyBytes(32)
	if extra, decoded := int64(many)-int64(few), int64(28*elems*4); extra > decoded/8 {
		t.Errorf("Verify allocated %d B for 4 records and %d B for 32: %d B more, against %d B of extra decoded values", few, many, extra, decoded)
	}
}
