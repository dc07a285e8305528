// Package quant implements the group-wise weight quantization FlexGen uses
// to compress model weights from FP16 to 4 bits (Shen et al. [53], §IV-B):
// tensors are split into fixed-size groups, each group stores its minimum
// and scale in half precision, and elements are encoded as unsigned
// fixed-point offsets from the group minimum.
//
// The package provides both a real encoder/decoder (used by the tests and
// examples to demonstrate the error bounds that make 4-bit serving viable)
// and the exact compressed-size accounting the placement and scheduling
// code uses (the ~3.56x size reduction of §IV-B: "reducing the model size
// to nearly a quarter").
package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"helmsim/internal/parallel"
	"helmsim/internal/units"
)

// Config selects the quantization parameters.
type Config struct {
	// Bits is the per-element width; 2, 4, and 8 are supported.
	Bits int
	// GroupSize is the number of elements sharing one (min, scale) pair.
	GroupSize int
}

// Default returns FlexGen's configuration: 4 bits, group size 64.
func Default() Config { return Config{Bits: 4, GroupSize: 64} }

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Bits {
	case 2, 4, 8:
	default:
		return fmt.Errorf("quant: unsupported bit width %d (want 2, 4, or 8)", c.Bits)
	}
	if c.GroupSize <= 0 {
		return fmt.Errorf("quant: non-positive group size %d", c.GroupSize)
	}
	return nil
}

// levels is the number of representable values per element.
func (c Config) levels() int { return 1 << c.Bits }

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
	dataBits := elems * int64(c.Bits)
	dataBytes := (dataBits + 7) / 8
	return units.Bytes(dataBytes + groups*metaBytesPerGroup)
}

// Ratio is the asymptotic compressed/uncompressed size ratio against a
// dtype of the given byte width. For the default config against FP16 this
// is 0.28125 — "nearly a quarter" (§IV-B).
func (c Config) Ratio(dtypeBytes int) float64 {
	perElem := float64(c.Bits)/8 + metaBytesPerGroup/float64(c.GroupSize)
	return perElem / float64(dtypeBytes)
}

// Tensor is a quantized tensor.
type Tensor struct {
	cfg    Config
	n      int
	packed []byte
	mins   []Float16
	scales []Float16
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
	groups := (n + cfg.GroupSize - 1) / cfg.GroupSize
	t := &Tensor{
		cfg:    cfg,
		n:      n,
		packed: make([]byte, (n*cfg.Bits+7)/8),
		mins:   make([]Float16, groups),
		scales: make([]Float16, groups),
	}
	maxQ := float32(cfg.levels() - 1)
	for g := 0; g < groups; g++ {
		lo := g * cfg.GroupSize
		hi := lo + cfg.GroupSize
		if hi > n {
			hi = n
		}
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
		t.mins[g] = ToFloat16(gmin)
		scale := (gmax - gmin) / maxQ
		t.scales[g] = ToFloat16(scale)
		smin := t.mins[g].Float32()
		sscale := t.scales[g].Float32()
		for i := lo; i < hi; i++ {
			var q uint32
			if sscale > 0 {
				q = uint32(math.Round(float64((x[i] - smin) / sscale)))
				if q > uint32(maxQ) {
					q = uint32(maxQ)
				}
			}
			t.setQ(i, q)
		}
	}
	return t, nil
}

// setQ stores the quantized value of element i into the packed buffer.
func (t *Tensor) setQ(i int, q uint32) {
	bits := t.cfg.Bits
	bitPos := i * bits
	byteIdx := bitPos / 8
	shift := uint(bitPos % 8)
	mask := byte(t.cfg.levels()-1) << shift
	t.packed[byteIdx] = (t.packed[byteIdx] &^ mask) | byte(q)<<shift&mask
}

// getQ loads the quantized value of element i.
func (t *Tensor) getQ(i int) uint32 {
	bits := t.cfg.Bits
	bitPos := i * bits
	byteIdx := bitPos / 8
	shift := uint(bitPos % 8)
	return uint32(t.packed[byteIdx]>>shift) & uint32(t.cfg.levels()-1)
}

// Len is the element count.
func (t *Tensor) Len() int { return t.n }

// Bytes is the encoded size, identical to Config.CompressedBytes.
func (t *Tensor) Bytes() units.Bytes {
	return units.Bytes(len(t.packed) + len(t.mins)*2 + len(t.scales)*2)
}

// Dequantize decodes the tensor back to float32.
//
// Groups are independent (each owns a disjoint output range and only
// reads the packed buffer), so the decode tiles over the shared worker
// pool (tensor.SetParallelism) — per-use decompression is the serving
// path's recurring compute, and it scales with cores. Output is
// bit-identical at any worker count.
func (t *Tensor) Dequantize() []float32 {
	return t.DequantizeInto(nil)
}

// DequantizeInto is Dequantize writing into dst when its capacity
// suffices, allocating a fresh slice otherwise; it returns the filled
// slice (length t.Len()). The decode loop and its parallel tiling are
// identical to Dequantize, so the output bits match exactly. dst may be
// nil. The caller owns the returned slice; it aliases dst when dst was
// large enough.
func (t *Tensor) DequantizeInto(dst []float32) []float32 {
	var out []float32
	if cap(dst) >= t.n {
		out = dst[:t.n]
	} else {
		out = make([]float32, t.n)
	}
	grain := dequantGrain(t.cfg.GroupSize)
	if len(t.mins) <= grain || !fork.take() {
		t.dequantGroups(out, 0, len(t.mins))
		return out
	}
	fork.t, fork.out = t, out
	fork.run(len(t.mins), grain)
	return out
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
	t    *Tensor // the tensor being decoded, or nil: then p is
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
	f.t, f.p, f.out = nil, Packed{}, nil
	f.busy.Store(false)
}

// chunk decodes groups [glo, ghi) of the current call.
func (f *forkCall) chunk(glo, ghi int) {
	if f.t != nil {
		f.t.dequantGroups(f.out, glo, ghi)
		return
	}
	gs := f.p.gs
	f.p.DecodeRange(f.out[glo*gs:min(ghi*gs, f.p.n)], glo*gs)
}

// dequantGrain is the fewest groups a pool worker takes: ~16Ki elements
// per tile at the default group size keeps tiny tensors (biases, norms)
// on the calling goroutine.
func dequantGrain(groupSize int) int { return 1 + (1<<14)/groupSize }

// dequantGroups decodes groups [glo, ghi) into out — each group owns a
// disjoint output range, so any split over groups is bit-identical.
//
// A 4-bit group takes only 16 distinct values, so for Bits == 4 with an
// even GroupSize (every group then starts on a byte boundary) the group's
// values are computed once into a table — with the generic loop's own
// expression, so each entry carries the bits that loop would store — and
// the packed bytes are unpacked eight at a time through it. Everything
// else (2-/8-bit, odd group sizes, the odd last element) takes the
// generic per-element loop.
func (t *Tensor) dequantGroups(out []float32, glo, ghi int) {
	gs := t.cfg.GroupSize
	table := t.cfg.packable()
	for g := glo; g < ghi; g++ {
		lo := g * gs
		hi := lo + gs
		if hi > t.n {
			hi = t.n
		}
		gmin := t.mins[g].Float32()
		scale := t.scales[g].Float32()
		i := lo
		if table {
			i += decode4(out[lo:hi], t.packed[lo/2:], gmin, scale)
		}
		for ; i < hi; i++ {
			out[i] = gmin + float32(float32(t.getQ(i))*scale)
		}
	}
}

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
	scale := float64(t.scales[g].Float32())
	// Half a step from rounding, plus ~2 ulps of fp16 metadata error
	// amplified across the group range.
	return scale/2 + scale*float64(t.cfg.levels())*1e-3 + 1e-6
}
