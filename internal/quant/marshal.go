package quant

import (
	"encoding/binary"
	"fmt"
)

// marshalMagic guards the Tensor wire format.
const marshalMagic = uint32(0x47575134) // "GWQ4"

// MarshalBinary serializes the tensor: header (magic, bits, group size,
// element count), packed data, and the fp16 metadata arrays. The format is
// little-endian and versioned by the magic.
func (t *Tensor) MarshalBinary() ([]byte, error) {
	size := 4 + 4 + 4 + 8 + len(t.packed) + 2*len(t.mins) + 2*len(t.scales)
	buf := make([]byte, 0, size)
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, marshalMagic)
	buf = le.AppendUint32(buf, uint32(t.cfg.Bits))
	buf = le.AppendUint32(buf, uint32(t.cfg.GroupSize))
	buf = le.AppendUint64(buf, uint64(t.n))
	buf = append(buf, t.packed...)
	for _, m := range t.mins {
		buf = le.AppendUint16(buf, uint16(m))
	}
	for _, s := range t.scales {
		buf = le.AppendUint16(buf, uint16(s))
	}
	return buf, nil
}

// UnmarshalBinary restores a tensor serialized by MarshalBinary. The
// tensor copies what it needs out of data, which may be reused freely
// afterwards.
func (t *Tensor) UnmarshalBinary(data []byte) error {
	return t.unmarshal(data, true)
}

// UnmarshalBinaryView is UnmarshalBinary without copying the packed
// element bytes: the tensor aliases data's packed region directly, so
// data must stay alive, unmodified, and mapped (for mmap-backed
// checkpoints, pinned) for as long as the tensor is used. It exists for
// the read-decode-discard pattern — unmarshal a view, DequantizeInto a
// reusable buffer, drop the tensor — where the packed copy would be the
// only per-read allocation left. The fp16 metadata is still decoded
// into t's own storage, reusing its existing capacity when possible.
func (t *Tensor) UnmarshalBinaryView(data []byte) error {
	return t.unmarshal(data, false)
}

func (t *Tensor) unmarshal(data []byte, copyPacked bool) error {
	le := binary.LittleEndian
	cfg, n, err := header(data)
	if err != nil {
		return err
	}
	packedLen, groups := cfg.layout(n)
	want := 20 + packedLen + 4*groups
	if len(data) != want {
		return fmt.Errorf("quant: tensor payload is %d bytes, want %d", len(data), want)
	}
	t.cfg = cfg
	t.n = n
	if copyPacked {
		t.packed = append([]byte(nil), data[20:20+packedLen]...)
	} else {
		t.packed = data[20 : 20+packedLen : 20+packedLen]
	}
	off := 20 + packedLen
	if cap(t.mins) >= groups {
		t.mins = t.mins[:groups]
	} else {
		t.mins = make([]Float16, groups)
	}
	for i := range t.mins {
		t.mins[i] = Float16(le.Uint16(data[off+2*i:]))
		if !finite16(t.mins[i]) {
			return fmt.Errorf("quant: non-finite group minimum at group %d", i)
		}
	}
	off += 2 * groups
	if cap(t.scales) >= groups {
		t.scales = t.scales[:groups]
	} else {
		t.scales = make([]Float16, groups)
	}
	for i := range t.scales {
		t.scales[i] = Float16(le.Uint16(data[off+2*i:]))
		if !finite16(t.scales[i]) {
			return fmt.Errorf("quant: non-finite group scale at group %d", i)
		}
	}
	return nil
}

// finite16 reports whether the half is neither Inf nor NaN (exponent field
// not all ones).
func finite16(h Float16) bool { return h&0x7c00 != 0x7c00 }
