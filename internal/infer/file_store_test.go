package infer

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

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
// records come back as packed views, the raw norm gains and biases from
// the store's resident arena.
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

// writeCheckpointFile writes w's weights for cfg to a new file, 4-bit
// quantized when quantize is set.
func writeCheckpointFile(tb testing.TB, cfg model.Config, w *MemStore, quantize bool) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "resident.hlmc")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	var qc *quant.Config
	if quantize {
		c := quant.Default()
		qc = &c
	}
	if err := WriteCheckpoint(f, cfg, w, qc); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// fileOpeners are the two ways a FileStore reads its checkpoint.
var fileOpeners = []struct {
	name string
	open func(string) (*FileStore, error)
}{{"pread", OpenFileStore}, {"mmap", OpenFileStoreMmap}}

// A 4-bit checkpoint's norm gains and biases are resident from open: the
// arena holds every one of them, a fetch through Tensor is the same
// read-only view every time, reads no file and counts no Reads, and
// TensorInto still decodes a copy from the file; the packed records are
// still read; after Close a resident fetch fails like any other.
func TestFileStoreResidentViews(t *testing.T) {
	cfg := tinyOPT()
	raw, err := RandomWeights(cfg, 71, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	path := writeCheckpointFile(t, cfg, raw, true)
	elems := 0
	for _, l := range cfg.Layers() {
		for _, w := range l.Weights {
			if residentParam(w.Name) {
				elems += int(w.Elems)
			}
		}
	}
	for _, o := range fileOpeners {
		t.Run(o.name, func(t *testing.T) {
			fs, err := o.open(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes, fetches := fs.Resident(); bytes != 4*elems || fetches != 0 {
				t.Errorf("resident arena %d B after %d fetches, want %d B after none", bytes, fetches, 4*elems)
			}
			v1, err := fs.Tensor(1, "w_ln")
			if err != nil {
				t.Fatal(err)
			}
			v2, err := fs.Tensor(1, "b_ln")
			if err != nil {
				t.Fatal(err)
			}
			v3, err := fs.Tensor(1, "w_ln")
			if err != nil {
				t.Fatal(err)
			}
			if &v1[0] != &v3[0] || cap(v1) != len(v1) {
				t.Error("a resident tensor is not one fixed window of the arena")
			}
			want, _ := raw.TensorView(1, "w_ln")
			wantB, _ := raw.TensorView(1, "b_ln")
			if !slices.Equal(v1, want) || !slices.Equal(v2, wantB) {
				t.Error("resident values differ from the weights written")
			}
			if fs.Reads() != 0 {
				t.Errorf("resident fetches read the file %d times", fs.Reads())
			}
			if _, fetches := fs.Resident(); fetches != 3 {
				t.Errorf("resident fetches = %d, want 3", fetches)
			}
			cp, err := fs.TensorInto(1, "w_ln", nil)
			if err != nil || &cp[0] == &v1[0] || !slices.Equal(cp, want) || fs.Reads() != 1 {
				t.Errorf("TensorInto of a resident tensor: aliases the arena %v, err %v, reads %d", err == nil && &cp[0] == &v1[0], err, fs.Reads())
			}
			if _, ok, err := fs.TensorPacked(1, "w_q"); !ok || err != nil || fs.Reads() != 2 {
				t.Errorf("packed fetch: ok %v, err %v, reads %d", ok, err, fs.Reads())
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Tensor(1, "w_ln"); !errors.Is(err, checkpoint.ErrClosed) {
				t.Errorf("resident fetch after Close: %v, want ErrClosed", err)
			}
		})
	}
}

// rewrittenPair writes a 4-bit checkpoint and a second one of the same
// layout whose L1 norm gain differs, and returns the first's path and
// the byte ranges where the second differs: L1/w_ln's payload and its
// record CRC.
func rewrittenPair(t *testing.T, cfg model.Config) (path string, other []byte, diff [][2]int) {
	t.Helper()
	raw, err := RandomWeights(cfg, 73, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	path = writeCheckpointFile(t, cfg, raw, true)
	gain, _ := raw.TensorView(1, "w_ln")
	doubled := make([]float32, len(gain))
	for i, g := range gain {
		doubled[i] = 2 * g
	}
	raw.Put(1, "w_ln", doubled)
	otherPath := writeCheckpointFile(t, cfg, raw, true)
	raw.Put(1, "w_ln", gain)
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if other, err = os.ReadFile(otherPath); err != nil || len(other) != len(a) {
		t.Fatalf("second checkpoint: %d bytes, want %d (%v)", len(other), len(a), err)
	}
	for i := 0; i < len(a); i++ {
		if a[i] != other[i] {
			j := i
			for j < len(a) && a[j] != other[j] {
				j++
			}
			diff = append(diff, [2]int{i, j})
			i = j
		}
	}
	if len(diff) == 0 {
		t.Fatal("the two checkpoints are identical")
	}
	return path, other, diff
}

// writeRanges writes src's bytes over path's in the ranges, in place: the
// same file, so a mapping of it sees them.
func writeRanges(t *testing.T, path string, src []byte, ranges [][2]int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranges {
		if _, err := f.WriteAt(src[r[0]:r[1]], int64(r[0])); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// A raw record rewritten in place after open is unseen by fetches — the
// resident copy was decoded at open — and caught by Verify, which still
// re-reads every record against the CRCs read at open, over pread and
// over mmap.
func TestFileStoreResidentIgnoresRewrite(t *testing.T) {
	cfg := tinyOPT()
	for _, o := range fileOpeners {
		t.Run(o.name, func(t *testing.T) {
			path, other, diff := rewrittenPair(t, cfg)
			fs, err := o.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			if o.name == "mmap" && !fs.Mapped() {
				t.Skip("no mmap on this platform")
			}
			before, err := fs.Tensor(1, "w_ln")
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(before)
			writeRanges(t, path, other, diff)
			after, err := fs.Tensor(1, "w_ln")
			if err != nil || !slices.Equal(after, want) {
				t.Errorf("a fetch after the rewrite: err %v, values changed %v", err, err == nil && !slices.Equal(after, want))
			}
			if err := fs.Verify(); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Errorf("Verify after the rewrite: %v, want ErrCorrupt", err)
			}
		})
	}
}

// A resident record that fails its CRC at open is never published: every
// fetch of it reads it again and fails ErrCorrupt, and no fetch ever
// serves its window.
func TestFileStoreResidentWaitsForCRC(t *testing.T) {
	cfg := tinyOPT()
	for _, o := range fileOpeners {
		t.Run(o.name, func(t *testing.T) {
			path, other, diff := rewrittenPair(t, cfg)
			// The last difference alone, in the payload (the record CRC
			// precedes it): the stored CRC still vouches for the old bytes.
			writeRanges(t, path, other, diff[len(diff)-1:])
			fs, err := o.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			for i := 0; i < 2; i++ {
				if v, err := fs.Tensor(1, "w_ln"); !errors.Is(err, checkpoint.ErrCorrupt) {
					t.Fatalf("fetch %d of a corrupt resident record: %v (%d values), want ErrCorrupt", i, err, len(v))
				}
			}
			if _, err := fs.Tensor(1, "b_ln"); err != nil {
				t.Errorf("a clean resident record beside it: %v", err)
			}
		})
	}
}

// intoCounter counts the TensorInto calls that reach a FileStore.
type intoCounter struct {
	*FileStore
	into atomic.Int64
}

func (c *intoCounter) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	c.into.Add(1)
	return c.FileStore.TensorInto(layer, name, dst)
}

// A steady-state decode step over a 4-bit checkpoint converts nothing:
// the packed records travel as views and the norms and biases come from
// the resident arena, so no TensorInto call reaches the store and the
// loader holds no decode buffer, on the plain and the prefetched engine.
func TestDecodeStepMakesNoIntoCalls(t *testing.T) {
	cfg := oocShaped()
	path := writeTestCheckpoint(t, cfg, 13)
	for _, prefetch := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefetch=%v", prefetch), func(t *testing.T) {
			fs, err := OpenFileStoreMmap(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			store := &intoCounter{FileStore: fs}
			var se *StepEngine
			if prefetch {
				se, err = NewStepEnginePrefetched(context.Background(), cfg, store, Retry{})
			} else {
				se, err = NewStepEngine(cfg, store)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			step := stepDecode(t, cfg, se)
			before := store.into.Load()
			for range 3 {
				step()
			}
			se.Settle()
			if n := store.into.Load() - before; n != 0 {
				t.Errorf("%d TensorInto calls in three decode steps, want 0", n)
			}
			if bufs := slabSet(se.ld); len(bufs) != 0 {
				t.Errorf("the loader holds %d decode buffers, want none", len(bufs))
			}
		})
	}
}

// The loader never keeps a resident view as a decode buffer: over a
// raw-fp16 checkpoint, where every matrix decodes into the loader's
// buffers, none of those buffers lies in the store's resident arena after
// a prefill and decode steps.
func TestResidentViewsNeverDecodeTargets(t *testing.T) {
	cfg := tinyOPT()
	raw, err := RandomWeights(cfg, 79, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(writeCheckpointFile(t, cfg, raw, false))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	se, err := NewStepEnginePrefetched(context.Background(), cfg, fs, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	step := stepDecode(t, cfg, se)
	step()
	se.Settle()
	bufs := slabSet(se.ld)
	if len(bufs) == 0 {
		t.Fatal("no decode buffers: the raw matrices did not take the into path")
	}
	lo := uintptr(unsafe.Pointer(&fs.arena[0]))
	hi := lo + uintptr(4*len(fs.arena))
	for p := range bufs {
		if a := uintptr(unsafe.Pointer(p)); a >= lo && a < hi {
			t.Fatal("a resident view became a decode buffer")
		}
	}
}
