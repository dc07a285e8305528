package checkpoint

import (
	"fmt"
	"slices"

	"helmsim/internal/quant"
)

// The tests address records by the names they wrote; the package reads
// by slot. These resolve a name on every call.

// ReadTensor is ReadSlotInto by name, into fresh memory.
func (ix *Indexed) ReadTensor(name string) ([]float32, error) {
	slot, err := ix.slotOf(name)
	if err != nil {
		return nil, err
	}
	return ix.ReadSlotInto(slot, nil)
}

// ReadPacked is ReadSlotPacked by name.
func (ix *Indexed) ReadPacked(name string) (quant.Packed, bool, error) {
	slot, err := ix.slotOf(name)
	if err != nil {
		return quant.Packed{}, false, err
	}
	return ix.ReadSlotPacked(slot)
}

// slotOf is the named record's slot.
func (ix *Indexed) slotOf(name string) (int, error) {
	if slot := slices.Index(ix.Names(), name); slot >= 0 {
		return slot, nil
	}
	return 0, fmt.Errorf("checkpoint: no tensor %q", name)
}
