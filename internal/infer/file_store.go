package infer

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
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
// genuine out-of-core operation: nothing but the directory lives in
// memory, every layer access reads and decodes from storage, exactly the
// access pattern whose cost the simulator's storage configurations (SSD,
// FSDAX) model.
type FileStore struct {
	ix *checkpoint.Indexed
	// slots maps each (layer, name) whose TensorKey names a record to
	// that record's slot, so a fetch formats no key.
	slots map[storeKey]int
	// reads counts tensor fetches (observable I/O); atomic because the
	// prefetcher's items read the file from pool workers.
	reads atomic.Int64
}

// Reads reports the tensor fetches so far.
func (s *FileStore) Reads() int { return int(s.reads.Load()) }

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
	s := &FileStore{ix: ix, slots: make(map[storeKey]int)}
	for slot, key := range ix.Names() {
		digits, name, ok := strings.Cut(strings.TrimPrefix(key, "L"), "/")
		layer, err := strconv.Atoi(digits)
		if ok && err == nil && TensorKey(layer, name) == key {
			s.slots[storeKey{layer, name}] = slot
		}
	}
	return s, nil
}

// slot resolves a tensor to its record's slot.
func (s *FileStore) slot(layer int, name string) (int, error) {
	slot, ok := s.slots[storeKey{layer, name}]
	if !ok {
		return 0, fmt.Errorf("infer: checkpoint has no tensor %q", TensorKey(layer, name))
	}
	return slot, nil
}

// Tensor implements WeightStore.
func (s *FileStore) Tensor(layer int, name string) ([]float32, error) {
	return s.TensorInto(layer, name, nil)
}

// TensorInto implements IntoStore, decoding the record into dst when
// its capacity suffices. The returned slice never aliases the
// checkpoint's backing storage.
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
// checkpoint (see checkpoint.Indexed.Verify) — run it on a freshly
// opened store before swapping it under a live server.
func (s *FileStore) Verify() error { return s.ix.Verify() }

// Close releases the underlying file.
func (s *FileStore) Close() error { return s.ix.Close() }

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
