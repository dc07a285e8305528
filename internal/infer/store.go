// Package infer is an executable decoder-only transformer: real forward
// passes (embedding, multi-head/grouped-query attention with a KV cache,
// GELU or gated-SiLU FFNs, greedy decoding) over float32 tensors.
//
// The simulator (internal/sched) answers the paper's performance
// questions; this engine grounds the same computation in executable
// numerics at laptop scale: weights can live raw or group-wise quantized
// (dequantized per use, FlexGen's serving mode, §IV-B), models follow the
// exact layer/weight specs of internal/model, and the KV cache implements
// the incremental decode whose memory footprint drives the paper's batch
// analysis.
package infer

import (
	"fmt"
	"math/rand"

	"helmsim/internal/model"
	"helmsim/internal/quant"
)

// storeKey addresses one tensor.
type storeKey struct {
	layer int
	name  string
}

// WeightStore provides a layer's named tensors on demand.
type WeightStore interface {
	// Tensor returns the float32 contents of the named tensor of the
	// given schedulable layer. The result may be a read-only view of
	// the store's own storage (FileStore serves its resident norms and
	// biases so): the caller must never write to it, nor decode into it,
	// and may hold it only while the store stays open. A caller that
	// needs its own copy makes one.
	Tensor(layer int, name string) ([]float32, error)
}

// ViewStore is an optional WeightStore extension serving zero-copy
// read-only views. TensorView returns the store's own storage: the
// caller must never mutate it, and may hold it only while the store
// stays open — see DESIGN §3h for the ownership rules. Engines prefer
// views when the store offers them, which removes the per-fetch
// defensive copy from the decode hot path.
type ViewStore interface {
	WeightStore
	// TensorView returns the tensor's contents without copying.
	TensorView(layer int, name string) ([]float32, error)
}

// IntoStore is an optional WeightStore extension that decodes into a
// caller-provided buffer: TensorInto fills dst when cap(dst) suffices
// (allocating a fresh slice otherwise) and returns the filled slice,
// which the caller owns. It is how dequantization and checkpoint-decode
// output buffers get recycled across the layer cycle instead of being
// reallocated every fetch.
type IntoStore interface {
	WeightStore
	// TensorInto decodes the tensor into dst when possible and returns
	// the filled slice.
	TensorInto(layer int, name string, dst []float32) ([]float32, error)
}

// PackedStore is an optional WeightStore extension that hands 4-bit
// tensors out as validated views of their stored bytes instead of
// decoding them, so a weight crosses the store chain at 4.5 bits per
// element and is decoded where it is consumed. ok is false, with a nil
// error and without the store having read anything, for tensors that
// have no packed form (raw fp16 records): fetch those
// through the other paths. A view is valid while the checkpoint index
// under it stays open — DESIGN §3h names who may hold one.
type PackedStore interface {
	WeightStore
	// TensorPacked returns the packed view of the named tensor.
	TensorPacked(layer int, name string) (p quant.Packed, ok bool, err error)
}

// weight is one fetched tensor as the engine consumes it: f32 values,
// or — when packed is set — the packed 4-bit view the kernels decode tile
// by tile. decoded marks f32 values the store decoded into a buffer of
// the loader's (IntoStore), which alone may be decoded into again: any
// other f32 values are the store's — a view, a resident tensor — or a
// copy, and never a decode target. A bundle holds its weights in place
// and hands out pointers to them; the struct is a hundred bytes.
type weight struct {
	f32             []float32
	q               quant.Packed
	packed, decoded bool
}

// len is the tensor's element count.
func (w *weight) len() int {
	if w.packed {
		return w.q.Len()
	}
	return len(w.f32)
}

// MemStore holds raw float32 weights in memory.
type MemStore struct {
	m map[storeKey][]float32
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[storeKey][]float32)} }

// Put registers a tensor.
func (s *MemStore) Put(layer int, name string, data []float32) {
	s.m[storeKey{layer, name}] = data
}

// Tensor implements WeightStore. The returned slice is the caller's to
// own: it is a copy, so mutating it cannot corrupt the store for every
// later layer visit (engines hand tensors to kernels and caches whose
// lifetime the store cannot see).
func (s *MemStore) Tensor(layer int, name string) ([]float32, error) {
	d, ok := s.m[storeKey{layer, name}]
	if !ok {
		return nil, fmt.Errorf("infer: missing tensor L%d/%s", layer, name)
	}
	return append([]float32(nil), d...), nil
}

// TensorView implements ViewStore: the returned slice is the store's
// own storage (valid for the store's lifetime, never to be mutated).
func (s *MemStore) TensorView(layer int, name string) ([]float32, error) {
	d, ok := s.m[storeKey{layer, name}]
	if !ok {
		return nil, fmt.Errorf("infer: missing tensor L%d/%s", layer, name)
	}
	return d, nil
}

// RandomWeights builds a complete raw store for the model with seeded
// Gaussian weights at the given scale — the synthetic stand-in for
// downloaded checkpoints (the experiments never inspect token quality,
// §III-B).
func RandomWeights(cfg model.Config, seed int64, scale float64) (*MemStore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 {
		return nil, fmt.Errorf("infer: non-positive weight scale %v", scale)
	}
	rng := rand.New(rand.NewSource(seed))
	s := NewMemStore()
	for _, l := range cfg.Layers() {
		for _, w := range l.Weights {
			data := make([]float32, w.Elems)
			norm := isNormParam(w.Name)
			for i := range data {
				if norm {
					// Norm gains initialize to 1 (biases to 0 below).
					data[i] = 1
				} else {
					data[i] = float32(rng.NormFloat64() * scale)
				}
			}
			if isBiasParam(w.Name) {
				for i := range data {
					data[i] = 0
				}
			}
			s.Put(l.Index, w.Name, data)
		}
	}
	return s, nil
}

// isNormParam reports whether the tensor is a normalization gain.
func isNormParam(name string) bool {
	return name == "w_ln" || name == "w_norm"
}

// residentParam reports whether the tensor is one HeLM keeps resident
// beside the compute (its first placement rule: the biases and norms of
// both layer types): a norm gain, a bias or a norm shift. It is the one
// statement of that rule, and both sides of a fetch read it: a FileStore
// decodes those stored raw once and serves them from memory through
// Tensor, and the loader fetches them through Tensor, never into a
// recycled buffer. The rule is by name, not asked of the store, because
// only Tensor crosses every wrapper between the two (breakerStore,
// fault.Store, a benchmark's timing layer). Its cost falls on an
// IntoStore that keeps nothing resident: each norm and bias fetch gets
// a fresh Tensor result instead of a recycled buffer, a few kB a layer.
// Every IntoStore here is a FileStore or a wrapper of one.
func residentParam(name string) bool { return isNormParam(name) || isBiasParam(name) }

// isBiasParam reports whether the tensor is a bias or norm shift.
func isBiasParam(name string) bool {
	switch name {
	case "b_q", "b_k", "b_v", "b_out", "b_fc1", "b_fc2", "b_ln":
		return true
	}
	return false
}
