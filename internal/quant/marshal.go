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
	meta := data[20+packedLen:]
	if err := checkMeta(meta, groups); err != nil {
		return err
	}
	t.mins = halves(t.mins, meta[:2*groups])
	t.scales = halves(t.scales, meta[2*groups:])
	return nil
}

// halves decodes a little-endian fp16 array into dst's storage when its
// capacity suffices.
func halves(dst []Float16, src []byte) []Float16 {
	n := len(src) / 2
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]Float16, n)
	}
	for i := range dst {
		dst[i] = Float16(binary.LittleEndian.Uint16(src[2*i:]))
	}
	return dst
}

// finite16 reports whether the half is neither Inf nor NaN (exponent field
// not all ones).
func finite16(h Float16) bool { return h&0x7c00 != 0x7c00 }
