package quant

import (
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
