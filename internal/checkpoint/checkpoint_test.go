package checkpoint

import (
	"bytes"
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

	ix, err := NewIndexed(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ix.ModelName() != "OPT-test" {
		t.Errorf("model name = %q", ix.ModelName())
	}
	if names := ix.Names(); len(names) != 2 || names[0] != "w_q" || names[1] != "w_fc1" {
		t.Fatalf("names = %q", names)
	}

	r1, d1 := ix.records[0], mustReadSlot(t, ix, 0)
	if r1.kind != KindRawFP16 || len(d1) != len(raw) {
		t.Fatalf("record 1 = %+v, %d values", r1, len(d1))
	}
	for i := range raw {
		if rel := math.Abs(float64(d1[i]-raw[i])) / math.Max(1e-6, math.Abs(float64(raw[i]))); rel > 1e-3 {
			t.Fatalf("fp16 round trip elem %d: %v -> %v", i, raw[i], d1[i])
		}
	}

	r2, d2 := ix.records[1], mustReadSlot(t, ix, 1)
	if r2.kind != KindGWQ || len(d2) != len(raw) {
		t.Fatalf("record 2 = %+v, %d values", r2, len(d2))
	}
	// Quantized payload is smaller than raw fp16.
	if r2.length >= r1.length {
		t.Errorf("quantized %d B not smaller than raw %d B", r2.length, r1.length)
	}
	// Dequantized content matches the quantizer's own decode.
	want := qt.Dequantize()
	for i := range want {
		if d2[i] != want[i] {
			t.Fatalf("quantized decode mismatch at %d", i)
		}
	}

	if _, err := ix.ReadSlotInto(2, nil); err == nil {
		t.Errorf("a read past the last slot succeeded")
	}
}

// mustReadSlot decodes the slot's tensor into fresh memory.
func mustReadSlot(t *testing.T, ix *Indexed, slot int) []float32 {
	t.Helper()
	d, err := ix.ReadSlotInto(slot, nil)
	if err != nil {
		t.Fatalf("slot %d: %v", slot, err)
	}
	return d
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
	if _, err := NewIndexed(bytes.NewReader(bad)); err == nil {
		t.Errorf("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), good...)
	bad[4] = 99
	if _, err := NewIndexed(bytes.NewReader(bad)); err == nil {
		t.Errorf("bad version accepted")
	}
	// Truncated payload.
	ix, err := NewIndexed(bytes.NewReader(good[:len(good)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ReadSlotInto(0, nil); err == nil {
		t.Errorf("truncated tensor accepted")
	}
	// Empty stream.
	if _, err := NewIndexed(bytes.NewReader(nil)); err == nil {
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
	back, err := quant.ViewPacked(blob)
	if err != nil {
		t.Fatal(err)
	}
	a, b := orig.Dequantize(), back.DequantizeInto(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("marshal round trip diverged at %d", i)
		}
	}
	// Corruption checks.
	if _, err := quant.ViewPacked(blob[:10]); err == nil {
		t.Errorf("truncated blob accepted")
	}
	blob[0] ^= 0xff
	if _, err := quant.ViewPacked(blob); err == nil {
		t.Errorf("bad magic accepted")
	}
}
