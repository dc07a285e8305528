package quant

// marshalMagic guards the Tensor wire format.
const marshalMagic = uint32(0x47575134) // "GWQ4"

// headerLen is the fixed prefix of the wire format: magic, bits, group
// size (u32 each) and element count (u64).
const headerLen = 20

// MarshalBinary serializes the tensor: header (magic, bits — always 4 —,
// group size, element count), packed nibbles (element 2j in the low
// nibble of byte j, 2j+1 in the high one), then every group's fp16
// minimum and every group's fp16 scale. The format is little-endian and
// versioned by the magic; ViewPacked reads it. The caller owns the
// returned bytes.
func (t *Tensor) MarshalBinary() ([]byte, error) {
	return append([]byte(nil), t.blob...), nil
}

// finite16 reports whether the half is neither Inf nor NaN (exponent field
// not all ones).
func finite16(h Float16) bool { return h&0x7c00 != 0x7c00 }
