// Package quant implements the group-wise weight quantization FlexGen uses
// to compress model weights from FP16 to 4 bits (Shen et al. [53], §IV-B):
// tensors are split into fixed-size groups, each group stores its minimum
// and scale in half precision, and elements are encoded as 4-bit unsigned
// fixed-point offsets from the group minimum. That is the package's one
// format: 4 bits per element, an even group size (so every group starts
// on a byte boundary), and nothing else is written or read.
//
// Quantize is the encoder; Packed, a validated view of an encoded blob,
// is the one decoder, which serving, the fused kernels and Tensor itself
// go through. The package also provides the exact compressed-size
// accounting the placement and scheduling code uses (the ~3.56x size
// reduction of §IV-B: "reducing the model size to nearly a quarter").
package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"helmsim/internal/parallel"
	"helmsim/internal/units"
)

// bitsPerElem is the one element width: FlexGen's 4 bits.
const bitsPerElem = 4

// Config selects the quantization parameters.
type Config struct {
	// GroupSize is the number of elements sharing one (min, scale) pair:
	// positive and even.
	GroupSize int
}

// Default returns FlexGen's configuration: 4 bits, group size 64.
func Default() Config { return Config{GroupSize: 64} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.GroupSize <= 0 || c.GroupSize%2 != 0 {
		return fmt.Errorf("quant: group size %d is not positive and even", c.GroupSize)
	}
	return nil
}

// metaBytesPerGroup is the per-group metadata cost: one FP16 minimum and
// one FP16 scale.
const metaBytesPerGroup = 4

// CompressedBytes is the exact encoded size of a tensor with the given
// element count: packed element data plus per-group metadata.
func (c Config) CompressedBytes(elems int64) units.Bytes {
	if elems <= 0 {
		return 0
	}
	groups := (elems + int64(c.GroupSize) - 1) / int64(c.GroupSize)
	dataBits := elems * bitsPerElem
	dataBytes := (dataBits + 7) / 8
	return units.Bytes(dataBytes + groups*metaBytesPerGroup)
}

// Tensor is a quantized tensor: the bytes MarshalBinary returns, and the
// Packed view of them every decode goes through.
type Tensor struct {
	blob []byte
	p    Packed
}

// Quantize encodes x under cfg.
func Quantize(x []float32, cfg Config) (*Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return nil, fmt.Errorf("quant: non-finite element at index %d", i)
		}
	}
	n := len(x)
	packedLen, groups := cfg.layout(n)
	blob := make([]byte, headerLen+packedLen+metaBytesPerGroup*groups)
	le := binary.LittleEndian
	le.PutUint32(blob[0:], marshalMagic)
	le.PutUint32(blob[4:], bitsPerElem)
	le.PutUint32(blob[8:], uint32(cfg.GroupSize))
	le.PutUint64(blob[12:], uint64(n))
	nib := blob[headerLen : headerLen+packedLen]
	mins := blob[headerLen+packedLen : headerLen+packedLen+2*groups]
	scales := blob[headerLen+packedLen+2*groups:]
	const maxQ = 1<<bitsPerElem - 1
	for g := 0; g < groups; g++ {
		lo := g * cfg.GroupSize
		hi := min(lo+cfg.GroupSize, n)
		gmin, gmax := x[lo], x[lo]
		for _, v := range x[lo+1 : hi] {
			if v < gmin {
				gmin = v
			}
			if v > gmax {
				gmax = v
			}
		}
		// Store metadata in half precision, then quantize against the
		// *stored* (rounded) values so decode is self-consistent.
		hmin, hscale := ToFloat16(gmin), ToFloat16((gmax-gmin)/maxQ)
		le.PutUint16(mins[2*g:], uint16(hmin))
		le.PutUint16(scales[2*g:], uint16(hscale))
		smin, sscale := hmin.Float32(), hscale.Float32()
		if sscale <= 0 {
			continue // every code 0: the group decodes to its minimum
		}
		for i := lo; i < hi; i++ {
			q := uint32(min(max(math.Round(float64((x[i]-smin)/sscale)), 0), maxQ))
			nib[i/2] |= byte(q) << (4 * (i & 1))
		}
	}
	// A group range beyond half precision has an Inf minimum or scale,
	// which no reader accepts: ViewPacked refuses it here instead.
	p, err := ViewPacked(blob)
	if err != nil {
		return nil, err
	}
	return &Tensor{blob: blob, p: p}, nil
}

// Len is the element count.
func (t *Tensor) Len() int { return t.p.n }

// Bytes is the encoded size, identical to Config.CompressedBytes.
func (t *Tensor) Bytes() units.Bytes { return units.Bytes(len(t.blob) - headerLen) }

// Dequantize decodes the tensor back to float32 (see DequantizeInto).
func (t *Tensor) Dequantize() []float32 {
	return t.DequantizeInto(nil)
}

// DequantizeInto decodes the tensor into dst when its capacity suffices,
// allocating a fresh slice otherwise, and returns the filled slice
// (length t.Len()): Packed.DequantizeInto on the tensor's own encoding,
// so the bits are those every reader of the blob decodes, tiled over the
// shared worker pool the same way. dst may be nil. The caller owns the
// returned slice; it aliases dst when dst was large enough.
func (t *Tensor) DequantizeInto(dst []float32) []float32 {
	return t.p.DequantizeInto(dst)
}

// forkCall is the package's one forked decode: the operands its chunks
// need and the chunk body handed to parallel.For. A func literal
// capturing the operands would be heap-allocated on every call once For
// publishes it to the pool — 36 times per prefill over a packed store —
// so, as in internal/tensor, the body is a method value bound once and
// the operands travel in this struct. One instance suffices because the
// pool runs one fork at a time: a decode that finds the call taken (a
// prefetcher's, beside the engine's) runs serially, which is what
// parallel.For would have made of it.
type forkCall struct {
	busy atomic.Bool
	body func(glo, ghi int)
	p    Packed
	out  []float32
}

var fork = newForkCall()

func newForkCall() *forkCall {
	f := &forkCall{}
	f.body = f.chunk
	return f
}

// take claims the call for a decode that wants to fork; false means run
// serially: one worker configured, or another decode is mid-fork.
func (f *forkCall) take() bool {
	return parallel.N() > 1 && f.busy.CompareAndSwap(false, true)
}

// run forks groups [0, groups) over the pool with the operands the
// caller has set, then releases the call and its references.
func (f *forkCall) run(groups, grain int) {
	parallel.For(groups, grain, f.body)
	f.p, f.out = Packed{}, nil
	f.busy.Store(false)
}

// chunk decodes groups [glo, ghi) of the current call.
func (f *forkCall) chunk(glo, ghi int) {
	gs := f.p.gs
	f.p.DecodeRange(f.out[glo*gs:min(ghi*gs, f.p.n)], glo*gs)
}

// dequantGrain is the fewest groups a pool worker takes: ~16Ki elements
// per tile at the default group size keeps tiny tensors (biases, norms)
// on the calling goroutine.
func dequantGrain(groupSize int) int { return 1 + (1<<14)/groupSize }

// decode4Ref is the reference body of decode4: the whole implementation
// off amd64, the sub-block tail on it, and what the differential tests
// hold the assembly to. The 16 values a group can take are computed once
// — the generic expression with q written out, since a loop over q
// converts an integer per entry and costs a fifth of the whole decode —
// so each entry carries the bits the per-element loop would store. The
// product is written float32(q*scale): the Go spec lets a compiler fuse
// x*y + z into one rounding (arm64's does) and an explicit conversion
// forbids it, so every GOARCH rounds twice, like the SSE2 body.
func decode4Ref(out []float32, packed []byte, gmin, scale float32) int {
	tab := [16]float32{
		gmin + float32(0*scale), gmin + float32(1*scale), gmin + float32(2*scale), gmin + float32(3*scale),
		gmin + float32(4*scale), gmin + float32(5*scale), gmin + float32(6*scale), gmin + float32(7*scale),
		gmin + float32(8*scale), gmin + float32(9*scale), gmin + float32(10*scale), gmin + float32(11*scale),
		gmin + float32(12*scale), gmin + float32(13*scale), gmin + float32(14*scale), gmin + float32(15*scale),
	}
	return unpack4(out, packed, &tab)
}

// unpack4 decodes the whole bytes of a 4-bit run — element 2j is the low
// nibble of packed[j], element 2j+1 the high one — through the group's
// value table and returns the number of elements written: len(out)
// rounded down to even. One little-endian 64-bit load carries sixteen
// elements in nibble order.
func unpack4(out []float32, packed []byte, tab *[16]float32) int {
	n := len(out) &^ 1
	i := 0
	for ; i+16 <= n; i += 16 {
		w := binary.LittleEndian.Uint64(packed[i/2:])
		o := out[i : i+16 : i+16]
		o[0] = tab[w&15]
		o[1] = tab[w>>4&15]
		o[2] = tab[w>>8&15]
		o[3] = tab[w>>12&15]
		o[4] = tab[w>>16&15]
		o[5] = tab[w>>20&15]
		o[6] = tab[w>>24&15]
		o[7] = tab[w>>28&15]
		o[8] = tab[w>>32&15]
		o[9] = tab[w>>36&15]
		o[10] = tab[w>>40&15]
		o[11] = tab[w>>44&15]
		o[12] = tab[w>>48&15]
		o[13] = tab[w>>52&15]
		o[14] = tab[w>>56&15]
		o[15] = tab[w>>60]
	}
	for ; i < n; i += 2 {
		b := packed[i/2]
		out[i] = tab[b&15]
		out[i+1] = tab[b>>4]
	}
	return n
}

// MaxGroupError bounds the absolute reconstruction error of one group:
// half a quantization step plus the half-precision rounding of the
// metadata. Useful for asserting correctness properties.
func (t *Tensor) MaxGroupError(g int) float64 {
	scale := float64(halfAt(t.p.meta[len(t.p.meta)/2:], g))
	// Half a step from rounding, plus ~2 ulps of fp16 metadata error
	// amplified across the group range.
	return scale/2 + scale*(1<<bitsPerElem)*1e-3 + 1e-6
}
