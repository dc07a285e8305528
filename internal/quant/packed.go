package quant

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Packed is a validated, read-only view of a serialized 4-bit tensor: it
// aliases the payload it was built from and owns nothing, so moving one
// through a store chain moves 4.5 bits per element instead of the 32 a
// dequantized copy costs. Consumers decode the groups they need, when
// they need them, with DecodeRange — or, for a one-row GEMV, multiply
// them straight out of the nibbles with Gemv. The view is valid for
// as long as the payload is (for an mmap-backed checkpoint: while the
// index is open).
type Packed struct {
	gs int // group size, even
	// shift is log2(gs) when gs is a power of two — every shipped size —
	// and zero otherwise: DecodeRange is called once per 256-element run
	// of every weight of every step, and two 64-bit divisions were a fifth
	// of such a call.
	shift uint8
	n     int    // element count
	nib   []byte // packed nibbles: element 2j low, 2j+1 high, of byte j
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
	if p, ok, err = ParsePacked(data); !ok || err != nil {
		return Packed{}, false, err
	}
	if err := checkMeta(p.meta, len(p.meta)/4); err != nil {
		return Packed{}, false, err
	}
	return p, true, nil
}

// ParsePacked is ViewPacked without the metadata scan: it makes every
// check that bounds the view — magic, configuration, element count, exact
// payload length — and leaves the group minimums and scales unread. It is
// for bytes that already passed ViewPacked and have not changed since (a
// checkpoint record on the mapping it was verified on); anything else goes
// through ViewPacked.
func ParsePacked(data []byte) (p Packed, ok bool, err error) {
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
	p = Packed{gs: cfg.GroupSize, n: n, nib: data[20 : 20+packedLen : 20+packedLen], meta: data[20+packedLen:]}
	if p.gs&(p.gs-1) == 0 {
		p.shift = uint8(bits.TrailingZeros(uint(p.gs)))
	}
	return p, true, nil
}

// checkMeta verifies that every half of a metadata block — groups
// minimums, then groups scales, little-endian fp16 — is finite, and names
// the first that is not.
func checkMeta(meta []byte, groups int) error {
	h := firstNonFinite(meta)
	switch {
	case h < 0:
		return nil
	case h < groups:
		return fmt.Errorf("quant: non-finite group minimum at group %d", h)
	}
	return fmt.Errorf("quant: non-finite group scale at group %d", h-groups)
}

// firstNonFinite is the index of the first Inf or NaN half in a
// little-endian fp16 array, or -1. It runs once per tensor fetch on the
// load lane, over 2/64 of a tensor's elements, so it looks at four halves
// per load: adding 0x0400 to a half's exponent field carries into the
// lane's top bit exactly when the field is all ones, and into nothing
// else. The half-at-a-time loop takes over at the first flagged word (and
// the tail), so the index is the scalar loop's.
func firstNonFinite(meta []byte) int {
	le := binary.LittleEndian
	i := 0
	for ; i+8 <= len(meta); i += 8 {
		if (le.Uint64(meta[i:])&0x7c007c007c007c00+0x0400040004000400)&0x8000800080008000 != 0 {
			break
		}
	}
	for ; i+2 <= len(meta); i += 2 {
		if !finite16(Float16(le.Uint16(meta[i:]))) {
			return i / 2
		}
	}
	return -1
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
	var g, whole int
	if p.shift != 0 {
		g, whole = lo>>p.shift, len(dst)>>p.shift<<p.shift
	} else {
		g, whole = lo/p.gs, len(dst)/p.gs*p.gs
	}
	mins, scales := p.meta[2*g:len(p.meta)/2], p.meta[len(p.meta)/2+2*g:]
	nib := p.nib[lo/2:]
	decodeGroups(dst[:whole], nib, mins, scales, p.gs)
	if dst = dst[whole:]; len(dst) > 0 {
		// The tensor's last, short group; its odd last element is the low
		// nibble of the final byte, through the generic expression.
		gmin, scale := halfAt(mins, whole/p.gs), halfAt(scales, whole/p.gs)
		nib = nib[whole/2:]
		if i := decode4(dst, nib, gmin, scale); i < len(dst) {
			dst[i] = gmin + float32(float32(nib[i/2]&15)*scale)
		}
	}
}

// Gemv adds x times weight rows to o without decoding them into
// memory: for every j, and every k in [0, len(x)) in ascending order, it
// adds x[k]·w[lo+k·stride+j] to o[j], where w is the decoded tensor — a
// one-row GEMV o += x @ W over a len(x) x stride W's columns from
// lo%stride, or a chunk of one. Each weight is DecodeRange's value, gmin
// + float32(float32(q)*scale), and each product is rounded and added in
// that order as internal/tensor's accumulate adds it, so o ends with the
// bits DecodeRange-then-accumulate stores; but at batch one every
// decoded value is used once, and here it goes from its nibble to the
// sum in registers. lo, stride and len(o) must be whole groups, and the
// rows must lie inside the tensor.
func (p Packed) Gemv(o, x []float32, lo, stride int) {
	g, lok := p.groupsIn(lo)
	sg, sok := p.groupsIn(stride)
	if _, ook := p.groupsIn(len(o)); !lok || !sok || !ook || lo < 0 || stride < 0 {
		panic(fmt.Sprintf("quant: Gemv over %d elements at %d, stride %d, is not whole groups of %d", len(o), lo, stride, p.gs))
	}
	half := len(p.meta) / 2
	gemv(o, x, p.nib[lo/2:], p.meta[2*g:half], p.meta[half+2*g:], p.gs, stride/2, 2*sg)
}

// groupsIn is n/gs, and whether n is a whole number of groups.
func (p Packed) groupsIn(n int) (int, bool) {
	if p.shift != 0 {
		return n >> p.shift, n&(p.gs-1) == 0
	}
	return n / p.gs, n%p.gs == 0
}

// gemvRef is the reference body of gemv: the whole implementation off
// amd64 and for group sizes that are not whole blocks, the last len(x)
// mod 4 rows of the SSE2 path, and what the differential tests hold the
// assembly to. It is the composition the one-row GEMV ran before
// decoding in registers: sixteen elements of a row's group decoded
// (decode4), then its term added to each output element, one row after
// another, every product converted to float32 so that no compiler may
// fuse it into the add.
func gemvRef(o, x []float32, nib, mins, scales []byte, gs, nibStride, metaStride int) {
	var w [16]float32
	for k, a := range x {
		for g := 0; g < len(o)/gs; g++ {
			gmin, scale := halfAt(mins[k*metaStride:], g), halfAt(scales[k*metaStride:], g)
			for j := g * gs; j < (g+1)*gs; j += 16 {
				n := min(16, (g+1)*gs-j)
				decode4(w[:n], nib[k*nibStride+j/2:], gmin, scale)
				for i, v := range w[:n] {
					o[j+i] += float32(a * v)
				}
			}
		}
	}
}

// decodeGroupsRef is the reference body of decodeGroups: the whole
// implementation off amd64 and for group sizes that are not whole blocks,
// and what the differential tests hold the assembly to.
func decodeGroupsRef(dst []float32, nib, mins, scales []byte, gs int) {
	for g := 0; len(dst) >= gs; g++ {
		decode4(dst[:gs], nib[g*gs/2:], halfAt(mins, g), halfAt(scales, g))
		dst = dst[gs:]
	}
}

// halfAt is element i of a little-endian fp16 array, widened.
func halfAt(meta []byte, i int) float32 {
	return Float16(binary.LittleEndian.Uint16(meta[2*i:])).Float32()
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
