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

// Store injects faults at tensor granularity: each Tensor call, and each
// TensorPacked call the backing store serves packed, is one access of the
// plan. Transient failures return an error wrapping ErrTransient;
// corruption flips one bit of one element in a copy of the fetched
// tensor (the backing store's data is never touched).
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
	o, armed := s.decide(true)
	if !armed {
		return s.backing.Tensor(layer, name)
	}
	if o.spike {
		s.sleep()
	}
	if o.fail {
		return nil, s.injected(o, layer, name)
	}
	data, err := s.backing.Tensor(layer, name)
	if err != nil {
		return nil, err
	}
	if o.corrupt && len(data) > 0 {
		flipped := append([]float32(nil), data...)
		i := int(o.bitIndex % int64(len(flipped)))
		bit := uint32(1) << uint(o.bitIndex%32)
		flipped[i] = math.Float32frombits(math.Float32bits(flipped[i]) ^ bit)
		return flipped, nil
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
