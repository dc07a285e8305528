package infer

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"helmsim/internal/checkpoint"
	"helmsim/internal/model"
	"helmsim/internal/quant"
)

// TensorKey names a tensor inside a checkpoint: "L<layer>/<name>". The
// writer names records with it, and FileStore resolves them with it
// once, at open; no fetch formats one.
func TensorKey(layer int, name string) string {
	return fmt.Sprintf("L%03d/%s", layer, name)
}

// FileStore serves weights straight from an indexed checkpoint file —
// genuine out-of-core operation: every weight access reads and decodes
// from storage, exactly the access pattern whose cost the simulator's
// storage configurations (SSD, FSDAX) model. Only the directory and the
// resident set live in memory: the norm gains, biases and norm shifts
// stored raw (residentParam), HeLM's first placement rule executed.
// They are 0.1 % of a 4-bit checkpoint's bytes, and each is decoded once,
// after its CRC passes, into one f32 arena the store owns — at open, or
// at the first fetch that reads it cleanly when open could not — and is
// then served from it: a resident fetch reads no file, converts nothing
// and is not counted in Reads. A later rewrite of the file cannot reach
// a resident copy; Verify still re-reads every record (DESIGN §3h).
type FileStore struct {
	ix *checkpoint.Indexed
	// slots maps each (layer, name) whose TensorKey names a record to
	// that record's slot, so a fetch formats no key.
	slots map[storeKey]int
	// resident is by slot: the arena window of a resident record (nil
	// for every other record) and whether it holds the record's verified
	// values. mu serializes a window's decode past open.
	resident []residentSlot
	arena    []float32
	mu       sync.Mutex
	closed   atomic.Bool
	// reads counts tensor fetches that read the file, residents counts
	// the fetches served from the arena; atomic because the prefetcher's
	// items fetch from pool workers.
	reads, residents atomic.Int64
}

// residentSlot is one resident record's arena window.
type residentSlot struct {
	view  []float32
	ready atomic.Bool
}

// Reads reports the tensor fetches that have read the file so far.
func (s *FileStore) Reads() int { return int(s.reads.Load()) }

// Resident reports the resident arena's size in bytes — the first line
// of a resident budget — and the fetches it has served.
func (s *FileStore) Resident() (bytes, fetches int) {
	return 4 * len(s.arena), int(s.residents.Load())
}

// OpenFileStore opens a checkpoint as a weight store.
func OpenFileStore(path string) (*FileStore, error) {
	ix, err := checkpoint.OpenIndexed(path)
	if err != nil {
		return nil, err
	}
	return NewFileStore(ix)
}

// OpenFileStoreMmap opens a checkpoint through an mmap view, so tensor
// reads decode straight out of the page cache with no payload copy
// (record CRCs are still verified per read). On platforms without mmap
// it behaves exactly like OpenFileStore. Closing the store unmaps the
// file: close it only after every engine reading it has closed, as the
// serving daemon does with a retired generation (DESIGN §3h).
func OpenFileStoreMmap(path string) (*FileStore, error) {
	ix, err := checkpoint.OpenIndexedMmap(path)
	if err != nil {
		return nil, err
	}
	return NewFileStore(ix)
}

// Mapped reports whether reads are zero-copy mmap views.
func (s *FileStore) Mapped() bool { return s.ix.Mapped() }

// NewFileStore serves weights from an already-indexed checkpoint — the
// hook for slotting a fault-injecting (or otherwise wrapped)
// io.ReaderAt under the store via checkpoint.NewIndexed. Closing the
// store closes the index. Records whose names TensorKey does not
// produce stay in the checkpoint, unreachable through the store.
func NewFileStore(ix *checkpoint.Indexed) (*FileStore, error) {
	if ix == nil {
		return nil, fmt.Errorf("infer: nil checkpoint index")
	}
	names := ix.Names()
	s := &FileStore{ix: ix, slots: make(map[storeKey]int), resident: make([]residentSlot, len(names))}
	windows := make([]int, len(names))
	total := 0
	for slot, key := range names {
		digits, name, ok := strings.Cut(strings.TrimPrefix(key, "L"), "/")
		layer, err := strconv.Atoi(digits)
		if !ok || err != nil || TensorKey(layer, name) != key {
			continue
		}
		s.slots[storeKey{layer, name}] = slot
		if n, raw := ix.RawLen(slot); raw && residentParam(name) {
			windows[slot] = n
			total += n
		}
	}
	s.arena = make([]float32, total)
	off := 0
	for slot, n := range windows {
		if n > 0 {
			s.resident[slot].view = s.arena[off : off+n : off+n]
			off += n
			// A record that fails here — corrupt, or a transient read
			// error — stays unread, and its fetches read it until one
			// passes, or fail as any record's would.
			_ = s.decodeResident(slot)
		}
	}
	return s, nil
}

// decodeResident reads a resident record into its arena window; the
// window is published only once the read — CRC first — has passed.
func (s *FileStore) decodeResident(slot int) error {
	r := &s.resident[slot]
	data, err := s.ix.ReadSlotInto(slot, r.view[:0])
	if err != nil {
		return err
	}
	if len(data) != len(r.view) || &data[0] != &r.view[0] {
		return fmt.Errorf("infer: resident %s decoded to %d values, directory says %d: %w", s.ix.Names()[slot], len(data), len(r.view), checkpoint.ErrCorrupt)
	}
	r.ready.Store(true)
	return nil
}

// residentView serves a resident record's window, reading the record
// first if open could not.
func (s *FileStore) residentView(slot int) ([]float32, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("infer: resident tensor %q: %w", s.ix.Names()[slot], checkpoint.ErrClosed)
	}
	r := &s.resident[slot]
	if !r.ready.Load() {
		s.mu.Lock()
		var err error
		if !r.ready.Load() {
			err = s.decodeResident(slot)
		}
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	s.residents.Add(1)
	return r.view, nil
}

// slot resolves a tensor to its record's slot.
func (s *FileStore) slot(layer int, name string) (int, error) {
	slot, ok := s.slots[storeKey{layer, name}]
	if !ok {
		return 0, fmt.Errorf("infer: checkpoint has no tensor %q", TensorKey(layer, name))
	}
	return slot, nil
}

// Tensor implements WeightStore. A resident tensor comes back as a
// read-only view of the arena, valid while the store is open — the
// caller must never write to it, nor decode into it; every other record
// as a fresh decode the caller owns.
func (s *FileStore) Tensor(layer int, name string) ([]float32, error) {
	slot, err := s.slot(layer, name)
	if err != nil {
		return nil, err
	}
	if s.resident[slot].view != nil {
		return s.residentView(slot)
	}
	return s.TensorInto(layer, name, nil)
}

// TensorInto implements IntoStore, decoding the record into dst when
// its capacity suffices — read from the file, resident or not. The
// returned slice never aliases the store's storage.
func (s *FileStore) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	slot, err := s.slot(layer, name)
	if err != nil {
		return nil, err
	}
	if dst, err = s.ix.ReadSlotInto(slot, dst); err != nil {
		return nil, err
	}
	s.reads.Add(1)
	return dst, nil
}

// TensorPacked implements PackedStore: a 4-bit record comes back as a
// bounds-, CRC- and metadata-checked view of its stored bytes — of the
// mapping on an mmap-backed store — valid until the store is closed.
// Raw fp16 records report ok false from the directory, unread and
// uncounted: the caller's TensorInto is their one read.
func (s *FileStore) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	slot, err := s.slot(layer, name)
	if err != nil {
		return quant.Packed{}, false, err
	}
	p, ok, err := s.ix.ReadSlotPacked(slot)
	if ok {
		s.reads.Add(1)
	}
	return p, ok, err
}

// ModelName reports the checkpoint's model.
func (s *FileStore) ModelName() string { return s.ix.ModelName() }

// Verify re-reads and CRC-validates every record of the backing
// checkpoint (see checkpoint.Indexed.Verify), the resident ones too —
// run it on a freshly opened store before swapping it under a live
// server.
func (s *FileStore) Verify() error { return s.ix.Verify() }

// Close releases the underlying file; resident fetches fail after it
// too.
func (s *FileStore) Close() error {
	s.closed.Store(true)
	return s.ix.Close()
}

// WriteCheckpoint serializes a model's weights from a raw store into w,
// optionally group-wise quantized (norm gains and biases stay raw, as in
// the serving path).
func WriteCheckpoint(w io.Writer, cfg model.Config, src *MemStore, qc *quant.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var count int
	for _, l := range cfg.Layers() {
		count += len(l.Weights)
	}
	cw, err := checkpoint.NewWriter(w, cfg.Name, count)
	if err != nil {
		return err
	}
	for _, l := range cfg.Layers() {
		for _, spec := range l.Weights {
			data, err := src.Tensor(l.Index, spec.Name)
			if err != nil {
				return err
			}
			key := TensorKey(l.Index, spec.Name)
			if qc != nil && !isNormParam(spec.Name) && !isBiasParam(spec.Name) {
				t, err := quant.Quantize(data, *qc)
				if err != nil {
					return fmt.Errorf("infer: quantize %s: %w", key, err)
				}
				if err := cw.WriteQuantized(key, t); err != nil {
					return err
				}
				continue
			}
			if err := cw.WriteRaw(key, data); err != nil {
				return err
			}
		}
	}
	return cw.Close()
}

// SynthesizeCheckpoint writes a new checkpoint of cfg's RandomWeights
// (seeded, scale 0.06) to path, 4-bit quantized with quant.Default when
// quantize is set: the model a command serves when no checkpoint is
// named.
func SynthesizeCheckpoint(path string, cfg model.Config, seed int64, quantize bool) error {
	w, err := RandomWeights(cfg, seed, 0.06)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var qc *quant.Config
	if quantize {
		c := quant.Default()
		qc = &c
	}
	if err := WriteCheckpoint(f, cfg, w, qc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
