package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"helmsim/internal/parallel"
	"helmsim/internal/units"
)

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (Config{GroupSize: 2}).Validate(); err != nil {
		t.Errorf("group size 2 invalid: %v", err)
	}
	for _, c := range []Config{{GroupSize: 0}, {GroupSize: -64}, {GroupSize: 1}, {GroupSize: 7}, {GroupSize: 63}} {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

// §IV-B: 4-bit group-wise quantization reduces the model "to nearly a
// quarter" of its FP16 size.
func TestRatioNearQuarter(t *testing.T) {
	const elems = 64 << 10
	if r := float64(Default().CompressedBytes(elems)) / (2 * elems); r != 0.28125 {
		t.Errorf("ratio = %v, want 0.28125", r)
	}
}

func TestCompressedBytes(t *testing.T) {
	c := Default()
	// 64 elements: 32 data bytes + 4 metadata bytes.
	if got := c.CompressedBytes(64); got != 36 {
		t.Errorf("CompressedBytes(64) = %d, want 36", got)
	}
	// 65 elements: 33 data bytes (rounded up) + 2 groups of metadata.
	if got := c.CompressedBytes(65); got != 33+8 {
		t.Errorf("CompressedBytes(65) = %d, want 41", got)
	}
	if got := c.CompressedBytes(0); got != 0 {
		t.Errorf("CompressedBytes(0) = %d, want 0", got)
	}
	if got := c.CompressedBytes(-5); got != 0 {
		t.Errorf("CompressedBytes(-5) = %d, want 0", got)
	}
}

func TestQuantizeRoundTripAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float32, 4096)
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 0.02) // typical weight scale
	}
	tensor, err := Quantize(x, Default())
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	y := tensor.Dequantize()
	if len(y) != len(x) {
		t.Fatalf("len = %d, want %d", len(y), len(x))
	}
	for i := range x {
		g := i / Default().GroupSize
		bound := tensor.MaxGroupError(g)
		if d := math.Abs(float64(x[i] - y[i])); d > bound {
			t.Fatalf("elem %d error %.3g exceeds bound %.3g", i, d, bound)
		}
	}
	// Encoded size matches the analytic model.
	if got, want := tensor.Bytes(), Default().CompressedBytes(int64(len(x))); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	// Overall RMS error small relative to the data scale.
	var se, ss float64
	for i := range x {
		d := float64(x[i] - y[i])
		se += d * d
		ss += float64(x[i]) * float64(x[i])
	}
	// 4-bit GWQ over 64-element Gaussian groups has ~9% relative RMS; the
	// networks tolerate it (§IV-B: "negligible loss in accuracy").
	if rel := math.Sqrt(se) / math.Sqrt(ss); rel > 0.12 {
		t.Errorf("relative RMS error %.4f too high for 4-bit GWQ", rel)
	}
}

func TestQuantizeConstantGroup(t *testing.T) {
	x := []float32{3.5, 3.5, 3.5, 3.5}
	tensor, err := Quantize(x, Config{GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tensor.Dequantize() {
		// A constant group has zero scale; reconstruction is the fp16 min.
		if math.Abs(float64(v-3.5)) > 0.01 {
			t.Errorf("elem %d = %v, want 3.5", i, v)
		}
	}
}

// The stored minimum is the group minimum rounded to half precision,
// which can round up past the smallest element: that element rounds to
// code -1 against it, and must be clamped to code 0 — one step below
// its value — not wrapped to 15, the group's maximum.
func TestQuantizeClampsBelowStoredMin(t *testing.T) {
	gmin := float32(1331.75 / 4096) // rounds up to 1332/4096 in fp16
	x := []float32{gmin, gmin + 0.0004, gmin + 0.0008, gmin + 0.0012}
	smin := ToFloat16(gmin).Float32()
	sscale := ToFloat16((x[3] - gmin) / 15).Float32()
	if q := math.Round(float64((gmin - smin) / sscale)); q >= 0 {
		t.Fatalf("fixture: stored min %v, scale %v round %v to code %v, want below 0", smin, sscale, gmin, q)
	}
	tensor, err := Quantize(x, Config{GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := tensor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if code := blob[headerLen] & 0xf; code != 0 {
		t.Errorf("element below the stored minimum encoded as code %d, want 0", code)
	}
	for i, v := range tensor.Dequantize() {
		if d := math.Abs(float64(v - x[i])); d > float64(sscale) {
			t.Errorf("elem %d: %v -> %v, off by %v, more than one step %v", i, x[i], v, d, sscale)
		}
	}
}

func TestQuantizePartialGroup(t *testing.T) {
	x := []float32{1, 2, 3, 4, 5} // group size 4 -> one full + one partial
	tensor, err := Quantize(x, Config{GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Len() != 5 {
		t.Errorf("Len = %d", tensor.Len())
	}
	y := tensor.Dequantize()
	for i := range x {
		if math.Abs(float64(x[i]-y[i])) > 0.15 {
			t.Errorf("elem %d: %v -> %v", i, x[i], y[i])
		}
	}
}

func TestQuantizeRejectsNonFinite(t *testing.T) {
	for _, bad := range [][]float32{
		{1, float32(math.NaN())},
		{float32(math.Inf(1)), 0},
		{-70000, 1}, // finite, but the group minimum overflows half precision
	} {
		if _, err := Quantize(bad, Default()); err == nil {
			t.Errorf("non-finite input accepted: %v", bad)
		}
	}
	if _, err := Quantize([]float32{1}, Config{GroupSize: 3}); err == nil {
		t.Errorf("invalid config accepted")
	}
}

func TestQuantizeEmpty(t *testing.T) {
	tensor, err := Quantize(nil, Default())
	if err != nil {
		t.Fatalf("empty input: %v", err)
	}
	if tensor.Len() != 0 || tensor.Bytes() != 0 || len(tensor.Dequantize()) != 0 {
		t.Errorf("empty tensor not empty: len=%d bytes=%d", tensor.Len(), tensor.Bytes())
	}
}

func TestFloat16RoundTrip(t *testing.T) {
	cases := []float32{0, 1, -1, 0.5, 65504, -65504, 6.1e-5, 1.0 / 3.0, 3.14159}
	for _, f := range cases {
		g := ToFloat16(f).Float32()
		rel := math.Abs(float64(g-f)) / math.Max(1e-10, math.Abs(float64(f)))
		if f != 0 && rel > 1e-3 {
			t.Errorf("fp16 round trip %v -> %v (rel %.2g)", f, g, rel)
		}
		if f == 0 && g != 0 {
			t.Errorf("zero round trip = %v", g)
		}
	}
}

func TestFloat16Specials(t *testing.T) {
	if v := ToFloat16(float32(math.Inf(1))).Float32(); !math.IsInf(float64(v), 1) {
		t.Errorf("+Inf -> %v", v)
	}
	if v := ToFloat16(float32(math.Inf(-1))).Float32(); !math.IsInf(float64(v), -1) {
		t.Errorf("-Inf -> %v", v)
	}
	if v := ToFloat16(float32(math.NaN())).Float32(); !math.IsNaN(float64(v)) {
		t.Errorf("NaN -> %v", v)
	}
	// Overflow clamps to infinity.
	if v := ToFloat16(1e10).Float32(); !math.IsInf(float64(v), 1) {
		t.Errorf("overflow -> %v", v)
	}
	// Tiny values underflow to (sub)normal or zero without panicking.
	if v := ToFloat16(1e-30).Float32(); v != 0 {
		t.Errorf("underflow -> %v, want 0", v)
	}
	// Subnormal half survives.
	sub := float32(3.0e-6)
	got := ToFloat16(sub).Float32()
	if math.Abs(float64(got-sub))/float64(sub) > 0.05 {
		t.Errorf("subnormal %v -> %v", sub, got)
	}
	// Negative zero keeps its sign bit.
	nz := ToFloat16(float32(math.Copysign(0, -1)))
	if nz&0x8000 == 0 {
		t.Errorf("negative zero lost sign")
	}
}

// Property: fp16 round trip has bounded relative error over the normal
// range.
func TestFloat16RoundTripProperty(t *testing.T) {
	f := func(u uint32) bool {
		v := math.Float32frombits(u)
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		if a := math.Abs(float64(v)); a > 65000 || a < 1e-4 {
			return true // outside the comfortable fp16 normal range
		}
		g := ToFloat16(v).Float32()
		return math.Abs(float64(g-v))/math.Abs(float64(v)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: every reconstructed element lies within its group's [min, max]
// envelope (slightly widened for fp16 metadata rounding).
func TestDequantWithinEnvelopeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		rng := rand.New(rand.NewSource(seed))
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		tensor, err := Quantize(x, Default())
		if err != nil {
			return false
		}
		y := tensor.Dequantize()
		gs := Default().GroupSize
		for g := 0; g*gs < n; g++ {
			lo := g * gs
			hi := lo + gs
			if hi > n {
				hi = n
			}
			gmin, gmax := x[lo], x[lo]
			for _, v := range x[lo:hi] {
				if v < gmin {
					gmin = v
				}
				if v > gmax {
					gmax = v
				}
			}
			// Widen the envelope for the quantization step and the fp16
			// rounding of the group min/scale (relative to magnitude).
			mag := math.Max(math.Abs(float64(gmin)), math.Abs(float64(gmax)))
			pad := float32(1e-5 + float64(gmax-gmin)*0.02 + mag*2e-3)
			for i := lo; i < hi; i++ {
				if y[i] < gmin-pad || y[i] > gmax+pad {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: compressed size is monotone in element count and matches the
// constructed tensor exactly.
func TestCompressedBytesConsistencyProperty(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int(nRaw % 2000)
		x := make([]float32, n)
		tensor, err := Quantize(x, Default())
		if err != nil {
			return false
		}
		want := Default().CompressedBytes(int64(n))
		if tensor.Bytes() != want {
			return false
		}
		return Default().CompressedBytes(int64(n)+1) >= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompressedBytesForOPT175B(t *testing.T) {
	// Whole-model compressed footprint lands near 0.28125 x 350 GB.
	c := Default()
	elems := int64(175e9)
	got := c.CompressedBytes(elems)
	want := float64(elems) * 2 * 0.28125
	if math.Abs(float64(got)-want)/want > 1e-6 {
		t.Errorf("compressed 175B = %v, want ~%.0f", got, want)
	}
	if got >= units.Bytes(elems)*2 {
		t.Errorf("compression did not shrink")
	}
}

// Dequantize must be bit-identical at every worker count: each group owns
// a disjoint output range, so tiling cannot change a single element.
func TestDequantizeParallelInvariance(t *testing.T) {
	x := make([]float32, 1<<16+37) // odd tail group
	for i := range x {
		x[i] = float32(math.Sin(float64(i))) * float32(i%113)
	}
	for _, cfg := range []Config{{GroupSize: 64}, {GroupSize: 2}, {GroupSize: 1000}} {
		tensor, err := Quantize(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := parallel.Set(1)
		want := tensor.Dequantize()
		for _, par := range []int{2, 8} {
			parallel.Set(par)
			got := tensor.Dequantize()
			for i := range want {
				if got[i] != want[i] {
					parallel.Set(prev)
					t.Fatalf("cfg %+v par %d: elem %d = %v, want %v", cfg, par, i, got[i], want[i])
				}
			}
		}
		parallel.Set(prev)
	}
}
