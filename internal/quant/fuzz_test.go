package quant

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalTensor hardens the wire-format decoder from a one-group
// blob: arbitrary input must either be rejected by ViewPacked or decode
// to the scalar oracle's bits, never panic or read out of bounds. The
// property is FuzzPackedView's; this target keeps its own seeds and
// corpus.
func FuzzUnmarshalTensor(f *testing.F) {
	// Seeds: a valid blob, a truncated one, a corrupted magic.
	tt, err := Quantize([]float32{1, 2, 3, 4, 5, 6, 7, 8}, Default())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := tt.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:10])
	corrupted := bytes.Clone(valid)
	corrupted[0] ^= 0xff
	f.Add(corrupted)
	f.Add([]byte{})
	f.Fuzz(checkPackedView)
}
