// Package units provides the value types shared by every subsystem of the
// simulator: byte sizes, bandwidths, and simulated durations.
//
// The simulator never sleeps; time is purely a computed quantity. Durations
// are kept as float64 seconds (type Duration) rather than time.Duration so
// that sub-nanosecond precision survives the long chains of divisions the
// cost models perform.
package units

import (
	"fmt"
	"math"
)

// Bytes is a size in bytes. Sizes in the simulator are always non-negative;
// constructors and model code validate this at the boundaries.
type Bytes int64

// Common byte quantities.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40

	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
)

// GiBf reports the size in binary gigabytes as a float.
func (b Bytes) GiBf() float64 { return float64(b) / float64(GiB) }

// MiBf reports the size in binary megabytes as a float.
func (b Bytes) MiBf() float64 { return float64(b) / float64(MiB) }

// String renders the size with a human unit, e.g. "3.38 GiB".
func (b Bytes) String() string {
	neg := ""
	v := b
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= TiB:
		return fmt.Sprintf("%s%.2f TiB", neg, float64(v)/float64(TiB))
	case v >= GiB:
		return fmt.Sprintf("%s%.2f GiB", neg, float64(v)/float64(GiB))
	case v >= MiB:
		return fmt.Sprintf("%s%.2f MiB", neg, float64(v)/float64(MiB))
	case v >= KiB:
		return fmt.Sprintf("%s%.2f KiB", neg, float64(v)/float64(KiB))
	default:
		return fmt.Sprintf("%s%d B", neg, v)
	}
}

// Duration is a simulated duration in seconds.
type Duration float64

// Common durations.
const (
	Nanosecond  Duration = 1e-9
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
)

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Microseconds reports the duration in microseconds.
func (d Duration) Microseconds() float64 { return float64(d) * 1e6 }

// String renders the duration with an auto-selected unit.
func (d Duration) String() string {
	v := float64(d)
	a := math.Abs(v)
	switch {
	case a == 0:
		return "0s"
	case a < 1e-6:
		return fmt.Sprintf("%.2fns", v*1e9)
	case a < 1e-3:
		return fmt.Sprintf("%.2fµs", v*1e6)
	case a < 1:
		return fmt.Sprintf("%.2fms", v*1e3)
	default:
		return fmt.Sprintf("%.3fs", v)
	}
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// GBps constructs a bandwidth from decimal gigabytes per second, the unit
// used throughout the paper (e.g. PCIe Gen4 x16 = 32.0 GB/s).
func GBps(v float64) Bandwidth { return Bandwidth(v * 1e9) }

// GBpsf reports the bandwidth in decimal GB/s.
func (bw Bandwidth) GBpsf() float64 { return float64(bw) / 1e9 }

// String renders the bandwidth in GB/s.
func (bw Bandwidth) String() string { return fmt.Sprintf("%.2f GB/s", bw.GBpsf()) }

// TimeFor reports how long moving n bytes takes at this bandwidth.
// A non-positive bandwidth yields +Inf for a positive size (the transfer
// never completes) and 0 for an empty one.
func (bw Bandwidth) TimeFor(n Bytes) Duration {
	if n <= 0 {
		return 0
	}
	if bw <= 0 {
		return Duration(math.Inf(1))
	}
	return Duration(float64(n) / float64(bw))
}

// FLOPS is a compute rate in floating-point operations per second.
type FLOPS float64

// TFLOPS constructs a rate from teraflop/s.
func TFLOPS(v float64) FLOPS { return FLOPS(v * 1e12) }

// TimeFor reports how long executing flops operations takes at this rate.
func (f FLOPS) TimeFor(flops float64) Duration {
	if flops <= 0 {
		return 0
	}
	if f <= 0 {
		return Duration(math.Inf(1))
	}
	return Duration(flops / float64(f))
}
