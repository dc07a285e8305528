package checkpoint

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"helmsim/internal/quant"
)

func TestRoundTripRawAndQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	raw := make([]float32, 300)
	for i := range raw {
		raw[i] = float32(rng.NormFloat64())
	}
	qt, err := quant.Quantize(raw, quant.Default())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, "OPT-test", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRaw("w_q", raw); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteQuantized("w_fc1", qt); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.ModelName() != "OPT-test" {
		t.Errorf("model name = %q", r.ModelName())
	}
	if r.Remaining() != 2 {
		t.Errorf("remaining = %d", r.Remaining())
	}

	e1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if e1.Name != "w_q" || e1.Kind != KindRawFP16 || len(e1.Data) != len(raw) {
		t.Fatalf("entry 1 = %+v", e1)
	}
	for i := range raw {
		if rel := math.Abs(float64(e1.Data[i]-raw[i])) / math.Max(1e-6, math.Abs(float64(raw[i]))); rel > 1e-3 {
			t.Fatalf("fp16 round trip elem %d: %v -> %v", i, raw[i], e1.Data[i])
		}
	}

	e2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if e2.Kind != KindGWQ || len(e2.Data) != len(raw) {
		t.Fatalf("entry 2 = %+v", e2)
	}
	// Quantized payload is smaller than raw fp16.
	if e2.StoredBytes >= e1.StoredBytes {
		t.Errorf("quantized %d B not smaller than raw %d B", e2.StoredBytes, e1.StoredBytes)
	}
	// Dequantized content matches the quantizer's own decode.
	want := qt.Dequantize()
	for i := range want {
		if e2.Data[i] != want[i] {
			t.Fatalf("quantized decode mismatch at %d", i)
		}
	}

	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF after last tensor, got %v", err)
	}
}

func TestWriterCountEnforcement(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "m", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Errorf("closing before writing all declared tensors should fail")
	}
	if err := w.WriteRaw("a", []float32{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRaw("b", []float32{2}); err == nil {
		t.Errorf("writing beyond the declared count should fail")
	}
	if err := w.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := NewWriter(&buf, "m", -1); err == nil {
		t.Errorf("negative count accepted")
	}
	// One past the header's uint32 count: only representable in a 64-bit int.
	if strconv.IntSize == 64 {
		tooMany := uint64(math.MaxUint32) + 1
		if _, err := NewWriter(&buf, "m", int(tooMany)); err == nil {
			t.Errorf("count %d accepted", tooMany)
		}
	}
}

func TestReaderRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "m", 1)
	_ = w.WriteRaw("a", []float32{1, 2, 3})
	_ = w.Close()
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Errorf("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Errorf("bad version accepted")
	}
	// Truncated payload.
	r, err := NewReader(bytes.NewReader(good[:len(good)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Errorf("truncated tensor accepted")
	}
	// Empty stream.
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Errorf("empty stream accepted")
	}
}

func TestQuantTensorMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float32, 1000)
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 0.1)
	}
	orig, err := quant.Quantize(x, quant.Default())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back quant.Tensor
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	a, b := orig.Dequantize(), back.Dequantize()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("marshal round trip diverged at %d", i)
		}
	}
	// Corruption checks.
	if err := back.UnmarshalBinary(blob[:10]); err == nil {
		t.Errorf("truncated blob accepted")
	}
	blob[0] ^= 0xff
	if err := back.UnmarshalBinary(blob); err == nil {
		t.Errorf("bad magic accepted")
	}
}
