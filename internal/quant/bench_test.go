package quant

import (
	"encoding/binary"
	"fmt"
	"testing"

	"helmsim/internal/parallel"
)

// Group dequantization is the serving path's recurring compute (every
// weight use pays it, §IV-B); this pins its serial-vs-parallel cost.
func BenchmarkDequantize(b *testing.B) {
	x := make([]float32, 1<<21)
	for i := range x {
		x[i] = float32(i%509)/509 - 0.5
	}
	t, err := Quantize(x, Default())
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 0} { // 0 = GOMAXPROCS
		name := "p1"
		if par != 1 {
			name = "pN"
		}
		b.Run(name, func(b *testing.B) {
			prev := parallel.Set(par)
			defer parallel.Set(prev)
			b.SetBytes(int64(len(x)) * 4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := t.Dequantize(); len(got) != len(x) {
					b.Fatal("bad length")
				}
			}
		})
	}
}

// The bench-ooc decode: one FFN matrix (384 x 1536, 4-bit group-64) into
// a recycled buffer, as the prefetcher does once per tensor per token.
// ns/op over 589824 elements is bench/'s quant.dequant_ns_per_elem.
func BenchmarkDequantizeIntoFFN(b *testing.B) {
	x := make([]float32, 384*1536)
	for i := range x {
		x[i] = float32(i%509)/509 - 0.5
	}
	t, err := Quantize(x, Default())
	if err != nil {
		b.Fatal(err)
	}
	prev := parallel.Set(1)
	defer parallel.Set(prev)
	dst := make([]float32, len(x))
	b.SetBytes(int64(len(x)) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = t.DequantizeInto(dst)
	}
}

// ffnPacked is the bench-ooc FFN matrix (384 x 1536, 4-bit group-64) as
// the store chain carries it: the serialized blob and its packed view.
func ffnPacked(b *testing.B) (blob []byte, p Packed) {
	b.Helper()
	x := make([]float32, 384*1536)
	for i := range x {
		x[i] = float32(i%509)/509 - 0.5
	}
	t, err := Quantize(x, Default())
	if err != nil {
		b.Fatal(err)
	}
	if blob, err = t.MarshalBinary(); err != nil {
		b.Fatal(err)
	}
	if p, err = ViewPacked(blob); err != nil {
		b.Fatalf("ViewPacked: %v", err)
	}
	return blob, p
}

// What the load lane pays per fetch of that tensor besides the CRC: the
// header and length checks and 18432 metadata halves checked for
// finiteness (30–50 µs a half at a time, ~14 µs four to a word).
func BenchmarkViewPackedFFN(b *testing.B) {
	blob, _ := ffnPacked(b)
	b.SetBytes(int64(len(blob)))
	for i := 0; i < b.N; i++ {
		if _, err := ViewPacked(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// The stacked and table paths' access pattern over that tensor —
// DecodeRange in 256-element runs (tensor.q4Tile), four groups each —
// beside the leaf decode alone on the same bytes with the metadata
// already converted: the difference is what a run pays per group in Go
// around the decode (two Float16.Float32, the calls down to the leaf).
func BenchmarkDecodeRangeTile(b *testing.B) {
	_, p := ffnPacked(b)
	const run = 256
	var buf [run]float32
	b.Run("DecodeRange", func(b *testing.B) {
		b.SetBytes(int64(p.Len()) * 4)
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < p.Len(); lo += run {
				p.DecodeRange(buf[:], lo)
			}
		}
	})
	b.Run("decode4", func(b *testing.B) {
		gmin := Float16(binary.LittleEndian.Uint16(p.meta)).Float32()
		scale := Float16(binary.LittleEndian.Uint16(p.meta[len(p.meta)/2:])).Float32()
		b.SetBytes(int64(p.Len()) * 4)
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < p.Len(); lo += run {
				decode4(buf[:], p.nib[lo/2:], gmin, scale)
			}
		}
	})
}

// packedMat is a k x cols matrix of bench-ooc's weight scale, 4-bit in
// groups of 64, as the store chain carries it.
func packedMat(b *testing.B, k, cols int) Packed {
	b.Helper()
	x := make([]float32, k*cols)
	for i := range x {
		x[i] = float32(i%509)/509 - 0.5
	}
	t, err := Quantize(x, Default())
	if err != nil {
		b.Fatal(err)
	}
	blob, err := t.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	p, err := ViewPacked(blob)
	if err != nil {
		b.Fatalf("ViewPacked: %v", err)
	}
	return p
}

// The one-row GEMV at the three bench-ooc shapes as one worker runs it,
// in ns per weight: the whole k x c product through Gemv (nibbles
// decoded in registers where they are multiplied) on each assembly body
// — sse2, one call per k-quad, and avx512, one call, where the host has
// it — beside the Go twin, the decode-then-accumulate composition, which
// off amd64 is the body.
func BenchmarkAxpyRows(b *testing.B) {
	probed := wide512
	defer func() { wide512 = probed }()
	for _, shape := range []struct{ k, c int }{{384, 384}, {384, 1536}, {1536, 384}} {
		p := packedMat(b, shape.k, shape.c)
		half := len(p.meta) / 2
		o, x := make([]float32, shape.c), make([]float32, shape.k)
		for k := range x {
			x[k] = []float32{0.5, -0.25, 0.125, 1}[k%4]
		}
		registers := func() { p.Gemv(o, shape.c, x, shape.k, 0, shape.c) }
		for _, leaf := range []struct {
			name string
			wide bool
			run  func()
		}{
			{"sse2", false, registers},
			{"avx512", true, registers},
			{"twin", false, func() {
				gemvRef(o, shape.c, x, shape.k, p.nib, p.meta[:half], p.meta[half:], p.gs, shape.c/2, 2*shape.c/p.gs)
			}},
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", shape.k, shape.c, leaf.name), func(b *testing.B) {
				if leaf.wide && !probed {
					b.Skip("no AVX-512 F/BW/VL here")
				}
				wide512 = leaf.wide
				for i := 0; i < b.N; i++ {
					clear(o)
					leaf.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.Len()), "ns/weight")
			})
		}
	}
}
