package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{2 * KiB, "2.00 KiB"},
		{3 * MiB, "3.00 MiB"},
		{40 * GiB, "40.00 GiB"},
		{2 * TiB, "2.00 TiB"},
		{-3 * MiB, "-3.00 MiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBandwidthTimeFor(t *testing.T) {
	bw := GBps(32)
	got := bw.TimeFor(32 * GB)
	if math.Abs(got.Seconds()-1) > 1e-12 {
		t.Errorf("32 GB at 32 GB/s = %v, want 1s", got)
	}
	if d := bw.TimeFor(0); d != 0 {
		t.Errorf("zero bytes should take 0, got %v", d)
	}
	if d := Bandwidth(0).TimeFor(GiB); !math.IsInf(d.Seconds(), 1) {
		t.Errorf("zero bandwidth should take +Inf, got %v", d)
	}
}

func TestFLOPSTimeFor(t *testing.T) {
	f := TFLOPS(312) // A100 FP16 peak
	got := f.TimeFor(312e12)
	if math.Abs(got.Seconds()-1) > 1e-12 {
		t.Errorf("312 Tflop at 312 TFLOPS = %v, want 1s", got)
	}
	if d := f.TimeFor(0); d != 0 {
		t.Errorf("zero flops should take 0, got %v", d)
	}
	if d := FLOPS(0).TimeFor(1); !math.IsInf(d.Seconds(), 1) {
		t.Errorf("zero rate should take +Inf, got %v", d)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		in   Duration
		want string
	}{
		{0, "0s"},
		{3 * Nanosecond, "3.00ns"},
		{5 * Microsecond, "5.00µs"},
		{7 * Millisecond, "7.00ms"},
		{2.5 * Second, "2.500s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%g).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

// Property: TimeFor is linear in bytes — doubling the payload doubles the
// time at any positive bandwidth.
func TestBandwidthLinearityProperty(t *testing.T) {
	f := func(gbps uint8, mib uint16) bool {
		bw := GBps(float64(gbps%100) + 1)
		n := Bytes(mib) * MiB
		t1 := bw.TimeFor(n)
		t2 := bw.TimeFor(2 * n)
		return math.Abs(t2.Seconds()-2*t1.Seconds()) < 1e-9*math.Max(1, t2.Seconds())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
