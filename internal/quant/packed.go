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
// they need them, with DecodeRange — or, for a GEMV of a few stacked
// rows, multiply them straight out of the nibbles with Gemv. The view is
// valid for as long as the payload is (for an mmap-backed checkpoint:
// while the index is open).
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
// blob: the magic, a bits word of 4, a positive even group size and the
// element count.
func header(data []byte) (cfg Config, n int, err error) {
	le := binary.LittleEndian
	if len(data) < headerLen {
		return Config{}, 0, fmt.Errorf("quant: truncated tensor header (%d bytes)", len(data))
	}
	if got := le.Uint32(data[0:]); got != marshalMagic {
		return Config{}, 0, fmt.Errorf("quant: bad magic %#x", got)
	}
	if got := le.Uint32(data[4:]); got != bitsPerElem {
		return Config{}, 0, fmt.Errorf("quant: unsupported bit width %d (want %d)", got, bitsPerElem)
	}
	cfg = Config{GroupSize: int(le.Uint32(data[8:]))}
	if err := cfg.Validate(); err != nil {
		return Config{}, 0, err
	}
	// Two elements a byte: a larger count cannot fit the blob, and
	// bounding it keeps the layout arithmetic far from overflow.
	count := le.Uint64(data[12:])
	if count > 2*uint64(len(data)) {
		return Config{}, 0, fmt.Errorf("quant: %d elements cannot fit a %d-byte tensor", count, len(data))
	}
	return cfg, int(count), nil
}

// ViewPacked validates a MarshalBinary blob and returns a view of it:
// magic, a 4-bit width, a positive even group size, element count, exact
// payload length, every group minimum and scale finite. It allocates
// nothing. Any other width or group size is an error: the format has
// no other kind.
func ViewPacked(data []byte) (Packed, error) {
	p, err := ParsePacked(data)
	if err != nil {
		return Packed{}, err
	}
	if err := checkMeta(p.meta, len(p.meta)/4); err != nil {
		return Packed{}, err
	}
	return p, nil
}

// ParsePacked is ViewPacked without the metadata scan: it makes every
// check that bounds the view — magic, configuration, element count, exact
// payload length — and leaves the group minimums and scales unread. It is
// for bytes that already passed ViewPacked and have not changed since (a
// checkpoint record on the mapping it was verified on); anything else
// goes through ViewPacked.
func ParsePacked(data []byte) (Packed, error) {
	cfg, n, err := header(data)
	if err != nil {
		return Packed{}, err
	}
	packedLen, groups := cfg.layout(n)
	if want := headerLen + packedLen + metaBytesPerGroup*groups; len(data) != want {
		return Packed{}, fmt.Errorf("quant: tensor payload is %d bytes, want %d", len(data), want)
	}
	p := Packed{gs: cfg.GroupSize, n: n, nib: data[headerLen : headerLen+packedLen : headerLen+packedLen], meta: data[headerLen+packedLen:]}
	if p.gs&(p.gs-1) == 0 {
		p.shift = uint8(bits.TrailingZeros(uint(p.gs)))
	}
	return p, nil
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

// layout is the packed-byte and group counts of an n-element tensor:
// two elements a byte, the last group possibly short.
func (c Config) layout(n int) (packedLen, groups int) {
	if n > 0 {
		groups = (n-1)/c.GroupSize + 1
	}
	return (n + 1) / 2, groups
}

// DecodeRange decodes elements [lo, lo+len(dst)) into dst. lo must be a
// multiple of the group size, and the range must end on a group boundary
// or at the tensor's end: whole groups only, so every element comes out
// of its group's value table exactly as DequantizeInto computes it.
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

// Gemv adds stacked activation rows times weight rows to stacked output
// rows without decoding the weights into memory: x holds len(x)/k
// activation rows x_r of k elements each, o holds as many output rows
// o_r = o[r*ldo : r*ldo+n] of n = len(o)-(rows-1)*ldo elements each, and
// for every r, every j < n and every kk in [0, k) in ascending order it
// adds x_r[kk]·w[lo+kk·stride+j] to o_r[j], where w is the decoded
// tensor — a stacked GEMV O += X @ W over a k x stride W's columns from
// lo%stride, or a chunk of one. Each weight is DecodeRange's value, gmin
// + float32(float32(q)*scale), and each product is rounded and added in
// that order as internal/tensor's accumulate adds it, so every output
// row ends with the bits DecodeRange-then-accumulate stores, whichever
// rows share the call; but each weight goes from its nibble to the sums
// in registers, and on a host with AVX-512 it is decoded there once for
// up to four activation rows. lo, stride and n must be whole groups,
// the rows must lie inside the tensor, and with more than one activation
// row the output rows may not overlap (ldo >= n).
func (p Packed) Gemv(o []float32, ldo int, x []float32, k, lo, stride int) {
	rows := 0
	if k > 0 {
		rows = len(x) / k
	}
	n := len(o) - (rows-1)*ldo
	g, lok := p.groupsIn(lo)
	sg, sok := p.groupsIn(stride)
	if _, nok := p.groupsIn(n); rows == 0 || len(x) != rows*k || !lok || !sok || !nok || lo < 0 || stride < 0 || n < 0 || rows > 1 && ldo < n {
		panic(fmt.Sprintf("quant: Gemv of %d activations in rows of %d into %d outputs %d apart, at %d, stride %d: not whole rows, groups of %d, or disjoint outputs", len(x), k, len(o), ldo, lo, stride, p.gs))
	}
	half := len(p.meta) / 2
	gemv(o, ldo, x, k, p.nib[lo/2:], p.meta[2*g:half], p.meta[half+2*g:], p.gs, stride/2, 2*sg)
}

// GemvStacked reports whether Gemv decodes each weight once for several
// activation rows: on a host with AVX-512, at a group size of whole
// 16-element blocks. Elsewhere a call over R rows costs about R one-row
// calls, and a caller with stacked rows may do better decoding the
// weights once into scratch it reuses for every row.
func (p Packed) GemvStacked() bool { return gemvStacked(p.gs) }

// GemvTWide reports whether GemvT decodes each weight in a register
// once for every activation row, sixteen table rows a vector: on a host
// with AVX-512, at a group size that is a multiple of 8. Elsewhere it
// runs the reference body, and a caller does better with its own
// decode.
func (p Packed) GemvTWide() bool { return gemvTWide(p.gs) }

// GemvTRows is the number of consecutive table rows one GemvT call
// multiplies: one per lane of a 512-bit register.
const GemvTRows = 16

// GemvT adds a block of logits against a packed token table without
// decoding it into memory: the tensor is a table of rows of k elements,
// x holds len(x)/k activation rows x_r of k elements each, and for each
// r and each of the GemvTRows table rows j+t it adds x_r · w[j+t] to
// o[r*ldo+t], the terms in ascending k from o's value, each weight
// DecodeRange's value and each product rounded and added as
// internal/tensor's dotFrom adds it — so o ends with the bits
// DecodeRange-then-dotFrom stores. On a host with AVX-512, at a group
// size that is a multiple of 8, each weight is decoded in a register
// once for all of x's rows. k must be whole groups, the table rows must
// lie inside the tensor, and with more than one activation row the
// output rows may not overlap (ldo >= GemvTRows).
func (p Packed) GemvT(o []float32, ldo int, x []float32, k, j int) {
	g, kok := p.groupsIn(k)
	if !kok || k <= 0 || len(x)%k != 0 || j < 0 || j > p.n/k-GemvTRows || (len(x) > k && ldo < GemvTRows) {
		panic(fmt.Sprintf("quant: GemvT over %d activations, table rows %d.. of %d elements, output stride %d, in groups of %d", len(x), j, k, ldo, p.gs))
	}
	gemvT(o, ldo, x, p.nib[j*k/2:], p.meta, j*g, p.gs, k)
}

// gemvTRef is the reference body of gemvT: the whole implementation off
// amd64, where AVX-512 is missing and at group sizes that are not a
// multiple of 8, and what the differential tests hold the assembly to.
// It is the composition the logits ran before: a table row's group
// decoded (decode4, sixteen elements at a time), then each activation
// row's dot continued over it, every product converted to float32 so
// that no compiler may fuse it into the add.
func gemvTRef(o []float32, ldo int, x []float32, nib, meta []byte, g0, gs, k int) {
	var w [16]float32
	half, groups := len(meta)/2, k/gs
	for t := 0; t < GemvTRows; t++ {
		for r := 0; r < len(x)/k; r++ {
			s, xr := o[r*ldo+t], x[r*k:(r+1)*k]
			for gi := 0; gi < groups; gi++ {
				g := g0 + t*groups + gi
				gmin, scale := halfAt(meta, g), halfAt(meta[half:], g)
				for i := gi * gs; i < (gi+1)*gs; i += 16 {
					n := min(16, (gi+1)*gs-i)
					decode4(w[:n], nib[t*(k/2)+i/2:], gmin, scale)
					for e, v := range w[:n] {
						s += float32(xr[i+e] * v)
					}
				}
			}
			o[r*ldo+t] = s
		}
	}
}

// groupsIn is n/gs, and whether n is a whole number of groups.
func (p Packed) groupsIn(n int) (int, bool) {
	if p.shift != 0 {
		return n >> p.shift, n&(p.gs-1) == 0
	}
	return n / p.gs, n%p.gs == 0
}

// gemvRef is the reference body of gemv: the whole implementation off
// amd64 and for group sizes that are not whole blocks, and what the
// differential tests hold the assembly to. It is one gemvRow per
// activation row, over that row's output row (gemv's operands).
func gemvRef(o []float32, ldo int, x []float32, k int, nib, mins, scales []byte, gs, nibStride, metaStride int) {
	rows := len(x) / k
	n := len(o) - (rows-1)*ldo
	for r := 0; r < rows; r++ {
		gemvRow(o[r*ldo:r*ldo+n], x[r*k:(r+1)*k], nib, mins, scales, gs, nibStride, metaStride)
	}
}

// gemvRow is gemvRef for one activation row, and the last k mod 4
// weight rows of both assembly levels. It is the composition the
// one-row GEMV ran before decoding in registers: sixteen elements of a
// weight row's group decoded (decode4), then its term added to each
// output element, one weight row after another, every product converted
// to float32 so that no compiler may fuse it into the add.
func gemvRow(o, x []float32, nib, mins, scales []byte, gs, nibStride, metaStride int) {
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
// suffices (allocating otherwise) and returns the filled slice. Groups
// are independent (each owns a disjoint output range), so the decode
// tiles over the shared worker pool (tensor.SetParallelism), bit-identical
// at any worker count.
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
