package infer

import (
	"fmt"
	"io"
	"sync/atomic"

	"helmsim/internal/checkpoint"
	"helmsim/internal/model"
	"helmsim/internal/quant"
)

// TensorKey names a tensor inside a checkpoint: "L<layer>/<name>".
// It runs once per weight fetch on the out-of-core serving path, so the
// common shape is formatted through a stack buffer (one allocation for
// the returned string) instead of fmt.Sprintf.
func TensorKey(layer int, name string) string {
	if layer < 0 || layer > 999 || len(name) > 59 {
		return fmt.Sprintf("L%03d/%s", layer, name)
	}
	var buf [64]byte
	buf[0] = 'L'
	buf[1] = byte('0' + layer/100)
	buf[2] = byte('0' + layer/10%10)
	buf[3] = byte('0' + layer%10)
	buf[4] = '/'
	n := copy(buf[5:], name)
	return string(buf[:5+n])
}

// FileStore serves weights straight from an indexed checkpoint file —
// genuine out-of-core operation: nothing but the directory lives in
// memory, every layer access reads and decodes from storage, exactly the
// access pattern whose cost the simulator's storage configurations (SSD,
// FSDAX) model.
type FileStore struct {
	ix *checkpoint.Indexed
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
	return &FileStore{ix: ix}, nil
}

// OpenFileStoreMmap opens a checkpoint through an mmap view, so tensor
// reads decode straight out of the page cache with no payload copy
// (record CRCs are still verified per read). On platforms without mmap
// it behaves exactly like OpenFileStore. Closing the store unmaps the
// file — when the store sits under a SwappableStore, the swap path's
// pin ordering guarantees no reader still holds a view (DESIGN §3h).
func OpenFileStoreMmap(path string) (*FileStore, error) {
	ix, err := checkpoint.OpenIndexedMmap(path)
	if err != nil {
		return nil, err
	}
	return &FileStore{ix: ix}, nil
}

// Mapped reports whether reads are zero-copy mmap views.
func (s *FileStore) Mapped() bool { return s.ix.Mapped() }

// NewFileStore serves weights from an already-indexed checkpoint — the
// hook for slotting a fault-injecting (or otherwise wrapped)
// io.ReaderAt under the store via checkpoint.NewIndexed. Closing the
// store closes the index.
func NewFileStore(ix *checkpoint.Indexed) (*FileStore, error) {
	if ix == nil {
		return nil, fmt.Errorf("infer: nil checkpoint index")
	}
	return &FileStore{ix: ix}, nil
}

// Tensor implements WeightStore.
func (s *FileStore) Tensor(layer int, name string) ([]float32, error) {
	e, err := s.ix.ReadTensor(TensorKey(layer, name))
	if err != nil {
		return nil, err
	}
	s.reads.Add(1)
	return e.Data, nil
}

// TensorInto implements IntoStore, decoding the record into dst when
// its capacity suffices. The returned slice never aliases the
// checkpoint's backing storage.
func (s *FileStore) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	e, err := s.ix.ReadTensorInto(TensorKey(layer, name), dst)
	if err != nil {
		return nil, err
	}
	s.reads.Add(1)
	return e.Data, nil
}

// TensorPacked implements PackedStore: a 4-bit record comes back as a
// bounds-, CRC- and metadata-checked view of its stored bytes — of the
// mapping on an mmap-backed store — valid until the store is closed.
// Records with no packed form report ok false from the directory, unread
// and uncounted: the caller's TensorInto is their one read.
func (s *FileStore) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	p, ok, err := s.ix.ReadPacked(TensorKey(layer, name))
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
