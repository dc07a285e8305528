package quant

import (
	"encoding/binary"
	"fmt"
)

// Packed is a validated, read-only view of a serialized 4-bit tensor: it
// aliases the payload it was built from and owns nothing, so moving one
// through a store chain moves 4.5 bits per element instead of the 32 a
// dequantized copy costs. Consumers decode the groups they need, when
// they need them, with DecodeRange. The view is valid for as long as the
// payload is (for an mmap-backed checkpoint: while the index is open).
type Packed struct {
	gs  int    // group size, even
	n   int    // element count
	nib []byte // packed nibbles: element 2j low, 2j+1 high, of byte j
	// meta is the raw little-endian fp16 block: every group's minimum,
	// then every group's scale.
	meta []byte
}

// Len is the element count.
func (p Packed) Len() int { return p.n }

// GroupSize is the number of elements sharing one (min, scale) pair.
func (p Packed) GroupSize() int { return p.gs }

// header parses and checks the fixed 20-byte prefix of a MarshalBinary
// blob.
func header(data []byte) (cfg Config, n int, err error) {
	le := binary.LittleEndian
	if len(data) < 20 {
		return Config{}, 0, fmt.Errorf("quant: truncated tensor header (%d bytes)", len(data))
	}
	if got := le.Uint32(data[0:]); got != marshalMagic {
		return Config{}, 0, fmt.Errorf("quant: bad magic %#x", got)
	}
	cfg = Config{Bits: int(le.Uint32(data[4:])), GroupSize: int(le.Uint32(data[8:]))}
	if err := cfg.Validate(); err != nil {
		return Config{}, 0, err
	}
	n = int(le.Uint64(data[12:]))
	if n < 0 {
		return Config{}, 0, fmt.Errorf("quant: negative element count")
	}
	return cfg, n, nil
}

// packable reports whether a tensor of this shape can travel as a Packed
// view: 4-bit with an even group size, so every group starts on a byte
// boundary and decodes through the 16-entry table.
func (c Config) packable() bool { return c.Bits == 4 && c.GroupSize%2 == 0 }

// HeaderPackable reports whether the first bytes of a MarshalBinary blob
// describe a tensor ViewPacked would accept as packable. It reads only
// the 20-byte header, so a caller can route a record before touching
// its payload.
func HeaderPackable(data []byte) bool {
	cfg, _, err := header(data)
	return err == nil && cfg.packable()
}

// ViewPacked validates a MarshalBinary blob and returns a view of it. It
// makes exactly the checks UnmarshalBinary makes — magic, configuration,
// element count, exact payload length, every group minimum and scale
// finite — and allocates nothing. ok is false, with a nil error, for a
// well-formed header the view cannot represent (2- or 8-bit, odd group
// size): the caller decodes those through Tensor.
func ViewPacked(data []byte) (p Packed, ok bool, err error) {
	cfg, n, err := header(data)
	if err != nil {
		return Packed{}, false, err
	}
	if !cfg.packable() {
		return Packed{}, false, nil
	}
	packedLen, groups := cfg.layout(n)
	if want := 20 + packedLen + 4*groups; len(data) != want {
		return Packed{}, false, fmt.Errorf("quant: tensor payload is %d bytes, want %d", len(data), want)
	}
	meta := data[20+packedLen:]
	for g := 0; g < 2*groups; g++ {
		if !finite16(Float16(binary.LittleEndian.Uint16(meta[2*g:]))) {
			if g < groups {
				return Packed{}, false, fmt.Errorf("quant: non-finite group minimum at group %d", g)
			}
			return Packed{}, false, fmt.Errorf("quant: non-finite group scale at group %d", g-groups)
		}
	}
	return Packed{gs: cfg.GroupSize, n: n, nib: data[20 : 20+packedLen : 20+packedLen], meta: meta}, true, nil
}

// layout is the packed-byte and group counts of an n-element tensor.
func (c Config) layout(n int) (packedLen, groups int) {
	if n > 0 {
		groups = (n + c.GroupSize - 1) / c.GroupSize
	}
	return (n*c.Bits + 7) / 8, groups
}

// DecodeRange decodes elements [lo, lo+len(dst)) into dst. lo must be a
// multiple of the group size, and the range must end on a group boundary
// or at the tensor's end: whole groups only, so every element comes out
// of its group's value table exactly as Tensor.DequantizeInto computes
// it.
func (p Packed) DecodeRange(dst []float32, lo int) {
	le := binary.LittleEndian
	scales := p.meta[len(p.meta)/2:]
	for g := lo / p.gs; len(dst) > 0; g++ {
		n := min(p.gs, len(dst))
		gmin := Float16(le.Uint16(p.meta[2*g:])).Float32()
		scale := Float16(le.Uint16(scales[2*g:])).Float32()
		at := g * p.gs
		i := decode4(dst[:n], p.nib[at/2:], gmin, scale)
		if i < n {
			// The odd last element of the tensor: the low nibble of the
			// final byte, through the generic expression.
			dst[i] = gmin + float32(float32(p.nib[(at+i)/2]&15)*scale)
		}
		dst = dst[n:]
	}
}

// DequantizeInto decodes the whole tensor into dst when its capacity
// suffices (allocating otherwise) and returns the filled slice — the
// same bits, tiled over the worker pool the same way, as
// Tensor.DequantizeInto.
func (p Packed) DequantizeInto(dst []float32) []float32 {
	var out []float32
	if cap(dst) >= p.n {
		out = dst[:p.n]
	} else {
		out = make([]float32, p.n)
	}
	groups := len(p.meta) / 4
	grain := dequantGrain(p.gs)
	if groups <= grain || !fork.take() {
		p.DecodeRange(out, 0)
		return out
	}
	fork.p, fork.out = p, out
	fork.run(groups, grain)
	return out
}
