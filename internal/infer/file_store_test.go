package infer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"helmsim/internal/checkpoint"
	"helmsim/internal/model"
	"helmsim/internal/quant"
)

// memFile is a checkpoint image in memory. Its Bytes method makes the
// index serve payloads as views of it, the way a mapping does.
type memFile []byte

func (m memFile) ReadAt(p []byte, off int64) (int, error) { return bytes.NewReader(m).ReadAt(p, off) }

func (m memFile) Bytes() []byte { return m }

// memCheckpoint writes raw's weights for cfg as a 4-bit checkpoint in
// memory and serves it through checkpoint.NewIndexed: the quantized
// records come back as packed views, the raw norm gains and biases
// decode into the caller's buffer.
func memCheckpoint(tb testing.TB, cfg model.Config, raw *MemStore) *FileStore {
	tb.Helper()
	var buf bytes.Buffer
	qc := quant.Default()
	if err := WriteCheckpoint(&buf, cfg, raw, &qc); err != nil {
		tb.Fatal(err)
	}
	ix, err := checkpoint.NewIndexed(memFile(buf.Bytes()))
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := NewFileStore(ix)
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// decodeOnly hides a store's packed views, so every 4-bit record
// decodes into the loader's recycled buffers.
type decodeOnly struct{ IntoStore }

// End-to-end out-of-core serving: write a quantized checkpoint to disk,
// open it as a weight store, and generate — the logits match the same
// checkpoint served from memory, and every tensor access is a disk read.
func TestFileStoreOutOfCoreGeneration(t *testing.T) {
	cfg := tinyOPT()
	raw, err := RandomWeights(cfg, 31, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "opt-tiny.hlmc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	qc := quant.Default()
	if err := WriteCheckpoint(f, cfg, raw, &qc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.ModelName() != cfg.Name {
		t.Errorf("model name = %q", fs.ModelName())
	}

	eFile, err := New(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{2, 7, 1}
	lFile, err := eFile.Forward(prompt)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Reads() == 0 {
		t.Fatal("no disk reads recorded — not out-of-core")
	}

	// Reference: the same quantized weights served from memory.
	eMem, err := New(cfg, memCheckpoint(t, cfg, raw))
	if err != nil {
		t.Fatal(err)
	}
	lMem, err := eMem.Forward(prompt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lFile.Data {
		if d := math.Abs(float64(lFile.Data[i] - lMem.Data[i])); d > 2e-3 {
			t.Fatalf("file-served logits diverge at %d by %g", i, d)
		}
	}
}

func TestWriteCheckpointRawRoundTrip(t *testing.T) {
	cfg := tinyLlama()
	raw, err := RandomWeights(cfg, 5, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "llama-tiny.hlmc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(f, cfg, raw, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// Raw fp16 round trip: tensors match to fp16 precision.
	want, _ := raw.Tensor(1, "w_q")
	got, err := fs.Tensor(1, "w_q")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		rel := math.Abs(float64(got[i]-want[i])) / math.Max(1e-6, math.Abs(float64(want[i])))
		if rel > 1e-3 {
			t.Fatalf("fp16 round trip elem %d: %v -> %v", i, want[i], got[i])
		}
	}
	if _, err := fs.Tensor(999, "nope"); err == nil {
		t.Errorf("missing tensor accepted")
	}
}

func TestIndexedRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.hlmc")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.OpenIndexed(bad); err == nil {
		t.Errorf("garbage file accepted")
	}
	if _, err := checkpoint.OpenIndexed(filepath.Join(dir, "missing.hlmc")); err == nil {
		t.Errorf("missing file accepted")
	}
}

func TestIndexedDirectory(t *testing.T) {
	cfg := tinyOPT()
	raw, _ := RandomWeights(cfg, 1, 0.05)
	path := filepath.Join(t.TempDir(), "x.hlmc")
	f, _ := os.Create(path)
	if err := WriteCheckpoint(f, cfg, raw, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ix, err := checkpoint.OpenIndexed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	names := ix.Names()
	var want int
	for _, l := range cfg.Layers() {
		want += len(l.Weights)
	}
	if len(names) != want {
		t.Fatalf("directory has %d names, want %d", len(names), want)
	}
	if !slices.Contains(names, TensorKey(1, "w_q")) || slices.Contains(names, "L999/nope") {
		t.Errorf("directory broken")
	}
	fs, err := NewFileStore(ix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Tensor(999, "nope"); err == nil {
		t.Errorf("missing tensor accepted")
	}
}

// relabelRecord rewrites the bits word of the named quantized record in
// a version-2 checkpoint file to bits, leaving its 4-bit layout behind,
// and re-seals the record CRC: the bytes a writer of another width would
// leave, checksummed and all.
func relabelRecord(t *testing.T, path, name string, bits uint32) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	off := 10 + int(le.Uint16(b[8:])) + 4 // magic, version, model name, count
	for off < len(b) {
		hdr := off
		nl := int(le.Uint16(b[off:]))
		rec := string(b[off+2 : off+2+nl])
		off += 2 + nl + 1 // name length, name, kind
		n := int(le.Uint64(b[off:]))
		off += 8 + 4 // payload length, crc
		payload := b[off : off+n]
		if rec == name {
			le.PutUint32(payload[4:], bits)
			crc := crc32.Update(crc32.ChecksumIEEE(b[hdr:off-4]), crc32.IEEETable, payload)
			le.PutUint32(b[off-4:], crc)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += n
	}
	t.Fatalf("no record %q in %s", name, path)
}

// A checkpoint whose quantized record is not 4-bit fails the engine's
// step with ErrCorrupt, over pread and mmap, and no token comes out: the record is never decoded some other way.
func TestFileStoreRejectsOtherWidthRecord(t *testing.T) {
	mc := tinyOPT()
	path := writeTestCheckpoint(t, mc, 5)
	var bad string // the last attention block's output projection
	for _, l := range mc.Layers() {
		for _, w := range l.Weights {
			if w.Name == "w_out" {
				bad = TensorKey(l.Index, w.Name)
			}
		}
	}
	relabelRecord(t, path, bad, 8)
	for name, open := range map[string]func(string) (*FileStore, error){"readat": OpenFileStore, "mmap": OpenFileStoreMmap} {
		fs, err := open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e, err := New(mc, fs)
		if err != nil {
			t.Fatal(err)
		}
		toks, err := e.Generate([]int{1, 2, 3}, 4)
		if len(toks) != 0 || !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: generated %v, err %v; want no tokens and ErrCorrupt", name, toks, err)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("tensor %q", bad)) {
			t.Errorf("%s: %v does not name the tensor %s", name, err, bad)
		}
		fs.Close()
	}
}
