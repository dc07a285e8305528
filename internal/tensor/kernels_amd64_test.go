package tensor

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"helmsim/internal/quant"
)

// The probe against the operating system's own answer: Linux lists the
// avx flag in /proc/cpuinfo only when the CPU has AVX and the kernel
// saves the YMM state — it clears the flag otherwise — which is what
// quant.CPUHasAVX reads from CPUID and XCR0, and what this package's
// switches were set from (internal/quant holds the AVX-512 probe to its
// flags).
func TestCPUHasAVXMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skipf("no /proc/cpuinfo on %s", runtime.GOOS)
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("read /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		want := slices.Contains(strings.Fields(flags), "avx")
		if got := quant.CPUHasAVX(); got != want {
			t.Fatalf("quant.CPUHasAVX() = %v, /proc/cpuinfo avx flag present = %v", got, want)
		}
		if probedAVX != want {
			t.Fatalf("wideAccumulate = %v, probe says %v", probedAVX, want)
		}
		if probed512 != quant.CPUHasAVX512() {
			t.Fatalf("wide512 = %v, quant.CPUHasAVX512() = %v", probed512, !probed512)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// expNoFMA is math.Exp as math/exp_amd64.s computes it on a CPU without
// FMA (or under GODEBUG=cpu.fma=off), one Go operation per instruction:
// CVTSD2SL rounds to nearest and turns a NaN or anything outside int32
// into 0x80000000, and every product is converted before it is added,
// so that no compiler fuses the two. It is what expAVX's lanes mirror.
func expNoFMA(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2u     = 0.69314718055966295651160180568695068359375
		ln2l     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	k := int32(math.MinInt32)
	if r := math.RoundToEven(log2e * x); r >= math.MinInt32 && r <= math.MaxInt32 {
		k = int32(r)
	}
	kd := float64(k)
	r := x - float64(kd*ln2u)
	r -= float64(kd * ln2l)
	r *= 0.0625
	p := float64(2.4801587301587301587e-5*r) + 1.9841269841269841270e-4
	for _, c := range []float64{1.3888888888888888889e-3, 8.3333333333333333333e-3, 4.1666666666666666667e-2,
		1.6666666666666666667e-1, 0.5, 1} {
		p = float64(p*r) + c
	}
	r *= p
	for range 4 {
		r *= r + 2
	}
	r++
	switch e := k + 1023; {
	case e < -52:
		return 0
	case e <= 0:
		return float64(r*math.Float64frombits(uint64(e+1022)<<52)) * 0x1p-1022
	case e >= 0x7ff:
		return math.Inf(1)
	default:
		return r * math.Float64frombits(uint64(e)<<52)
	}
}

// tanhNoFMA is math/tanh.go over expNoFMA, its products converted as
// expNoFMA's are.
func tanhNoFMA(x float64) float64 {
	const maxLog = 8.8029691931113054295988e+01
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := expNoFMA(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
		return z
	case x == 0:
		return x
	}
	s := x * x
	p := float64(-9.64399179425052238628e-1*s) - 9.92877231001918586564e1
	p = float64(p*s) - 1.61468768441708447952e3
	q := s + 1.12811678491632931402e2
	q = float64(q*s) + 2.23548839060100448583e3
	q = float64(q*s) + 4.84406305325125486048e3
	return x + float64(x*s)*p/q
}

// TestTranscendentalsMirrorNonFMA holds the vector bodies' exp and tanh
// (expAVX, tanhAVX) to expNoFMA and tanhNoFMA by Float64bits: every
// 251st float32 widened (every 2039th under the race detector), random
// float64 patterns, and the float64 values either side of every branch
// — tanh's 0.625 (at which its two branches differ in the last bit) and
// 0.5·MAXLOG, exp's overflow bound and the k at which its result
// overflows, turns subnormal and underflows. Where math.Exp itself takes its non-FMA body
// (GODEBUG=cpu.fma=off, as make kernel-oracles runs this too), the
// mirrors are also held to math.Exp and math.Tanh, which is the claim
// the float32 contract rests on: the vector body is that body.
func TestTranscendentalsMirrorNonFMA(t *testing.T) {
	if !probedAVX {
		t.Skip("no AVX here: the vector transcendentals never run")
	}
	step := uint64(251)
	if raceBuild {
		step = 2039
	}
	var in []float64
	for b := uint64(0); b < 1<<32; b += step {
		in = append(in, float64(math.Float32frombits(uint32(b))))
	}
	rng := rand.New(rand.NewSource(69))
	for range 1 << 16 {
		in = append(in, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*30)
	}
	const maxLog = 8.8029691931113054295988e+01
	for _, edge := range []float64{0.625, 0.5 * maxLog, 7.09782712893384e+02,
		1023.5 * math.Ln2, 1022.5 * math.Ln2, 1075.5 * math.Ln2, math.MaxInt32 * math.Ln2} {
		for _, e := range []float64{edge, -edge} {
			v := e
			for range 3 {
				v = math.Nextafter(v, math.Inf(-1))
			}
			for range 7 {
				in = append(in, v)
				v = math.Nextafter(v, math.Inf(1))
			}
		}
	}
	in = append(in, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000123))
	in = in[:len(in)&^3]
	fmaOff := strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off")
	for _, f := range []struct {
		name         string
		vec          func(*float64, int)
		mirror, math func(float64) float64
	}{{"exp", expAVX, expNoFMA, math.Exp}, {"tanh", tanhAVX, tanhNoFMA, math.Tanh}} {
		got := slices.Clone(in)
		f.vec(&got[0], len(got))
		for i, x := range in {
			want := f.mirror(x)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s(%v = %#016x): vector %#016x, non-FMA body %#016x", f.name, x, math.Float64bits(x),
					math.Float64bits(got[i]), math.Float64bits(want))
			}
			if m := f.math(x); fmaOff && math.Float64bits(m) != math.Float64bits(want) {
				t.Fatalf("%s(%v = %#016x): math.%s without FMA %#016x, its mirror %#016x", f.name, x, math.Float64bits(x),
					f.name, math.Float64bits(m), math.Float64bits(want))
			}
		}
	}
}
