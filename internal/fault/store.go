package fault

import (
	"fmt"
	"math"

	"helmsim/internal/quant"
)

// TensorStore is the weight-store shape this package wraps; it matches
// infer.WeightStore structurally so the injector needs no dependency on
// the engine.
type TensorStore interface {
	Tensor(layer int, name string) ([]float32, error)
}

// packedStore is infer.PackedStore's extra method, matched structurally
// for the same reason.
type packedStore interface {
	TensorPacked(layer int, name string) (quant.Packed, bool, error)
}

// intoStore is infer.IntoStore's extra method, matched structurally
// for the same reason.
type intoStore interface {
	TensorInto(layer int, name string, dst []float32) ([]float32, error)
}

// Store injects faults at tensor granularity: each Tensor and TensorInto
// call, and each TensorPacked call the backing store serves packed, is
// one access of the plan. Transient failures return an error wrapping
// ErrTransient; corruption flips one bit of one element of the fetched
// tensor in a buffer of the caller's — a copy, or TensorInto's dst — so
// the backing store's data is never touched.
type Store struct {
	injector
	backing TensorStore
}

// NewStore wraps a weight store with the plan's faults.
func NewStore(backing TensorStore, plan Plan) (*Store, error) {
	if backing == nil {
		return nil, fmt.Errorf("fault: nil backing store")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Store{injector: newInjector(plan), backing: backing}, nil
}

// Tensor implements the weight-store interface with injection. What the
// backing store returns is forwarded as it is — a read-only view of a
// store's resident tensors included (infer.FileStore's norms and biases)
// — and a corrupt outcome flips its bit in a copy, never in the view.
func (s *Store) Tensor(layer int, name string) ([]float32, error) {
	return s.access(layer, name, false, func() ([]float32, error) { return s.backing.Tensor(layer, name) })
}

// TensorInto forwards the backing store's decode into the caller's
// buffer (infer.IntoStore), so an engine behind the injector keeps
// recycling its decode buffers instead of allocating every f32 fetch.
// Each call is one access of the plan, like Tensor; a corrupt outcome
// flips its bit in the filled slice, which is the caller's. Over a store
// with no TensorInto it is Tensor.
func (s *Store) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	is, ok := s.backing.(intoStore)
	if !ok {
		return s.Tensor(layer, name)
	}
	return s.access(layer, name, true, func() ([]float32, error) { return is.TensorInto(layer, name, dst) })
}

// access is one access of the plan around an f32 read. owned says the
// read fills a buffer of the caller's, where a corrupt outcome may flip
// its bit in place; otherwise the bit flips in a copy.
func (s *Store) access(layer int, name string, owned bool, read func() ([]float32, error)) ([]float32, error) {
	o, armed := s.decide(true)
	if !armed {
		return read()
	}
	if o.spike {
		s.sleep()
	}
	if o.fail {
		return nil, s.injected(o, layer, name)
	}
	data, err := read()
	if err != nil {
		return nil, err
	}
	if o.corrupt && len(data) > 0 {
		if !owned {
			data = append([]float32(nil), data...)
		}
		i := int(o.bitIndex % int64(len(data)))
		bit := uint32(1) << uint(o.bitIndex%32)
		data[i] = math.Float32frombits(math.Float32bits(data[i]) ^ bit)
	}
	return data, nil
}

// TensorPacked forwards the backing store's packed views
// (infer.PackedStore), so an engine behind the injector keeps its 4-bit
// path and fused kernels instead of decoding every weight to f32. Only a
// fetch the backing store serves packed (ok) is an access of the plan:
// for a tensor with no packed form the caller falls back to Tensor, and
// that is the access, so a plan replays over an f32 store as before.
// Transient and spike outcomes apply to a packed fetch. A corrupt one
// does not, and is not counted in Stats.Corruptions: a packed view
// aliases the store's read-only bytes and cannot be flipped in place.
// Packed bit rot is injected where storage rots, at the ReaderAt seam
// under the checkpoint, whose CRC check catches it.
func (s *Store) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	ps, ok := s.backing.(packedStore)
	if !ok {
		return quant.Packed{}, false, nil
	}
	p, ok, err := ps.TensorPacked(layer, name)
	if !ok || err != nil {
		return p, ok, err
	}
	o, armed := s.decide(false)
	if !armed {
		return p, true, nil
	}
	if o.spike {
		s.sleep()
	}
	if o.fail {
		return quant.Packed{}, false, s.injected(o, layer, name)
	}
	return p, true, nil
}

// injected is the transient error of a failed access.
func (s *Store) injected(o outcome, layer int, name string) error {
	return fmt.Errorf("fault: injected read error at access %d (L%d/%s): %w", o.access, layer, name, ErrTransient)
}
