package tensor

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// geluOracle is GELU as one expression over float64(v) — what geluElems
// computed before widen and the two-element pass, kept as the reference
// their bits are held to.
func geluOracle(v float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
}

// TestWidenExhaustive holds widen to float64(v) by Float64bits over all
// 2³² float32 bit patterns: every sign, exponent and mantissa, NaN
// payloads included. The sweep is split over GOMAXPROCS goroutines (~4 s
// on two cores). Under the race detector, which instruments the loads in
// every bit cast and makes the sweep ~30× slower while having no shared
// memory to check, it visits every 251st pattern instead.
func TestWidenExhaustive(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	const span = 1 << 32
	step := uint64(1)
	if raceBuild {
		step = 251
	}
	var wg sync.WaitGroup
	bad := make([]uint64, workers) // first mismatching pattern + 1, per worker
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := uint64(span)*uint64(w)/uint64(workers), uint64(span)*uint64(w+1)/uint64(workers)
			for b := lo; b < hi; b += step {
				v := math.Float32frombits(uint32(b))
				if math.Float64bits(widen(v)) != math.Float64bits(float64(v)) {
					bad[w] = b + 1
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, b := range bad {
		if b != 0 {
			v := math.Float32frombits(uint32(b - 1))
			t.Fatalf("widen(%#08x) = %#016x, float64 gives %#016x", uint32(b-1),
				math.Float64bits(widen(v)), math.Float64bits(float64(v)))
		}
	}
}

// geluSpecials are the inputs a strided sweep can step over: signed
// zeros, the subnormal range's ends, the normal range's ends, infinities,
// quiet and signalling NaNs with payloads, and the float32 values on both
// sides of each input where math.Tanh changes branch (|u| = 0.625, and
// |u| = 44.01…, past which it returns ±1).
func geluSpecials() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormal ends
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest normal, ±MaxFloat32
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fc00001, 0x7fffffff, // quiet NaNs
		0x7f800001, 0xff800001, 0x7fa00000, 0x7fbfffff, // signalling NaNs
	}
	var out []float32
	for _, b := range bits {
		out = append(out, math.Float32frombits(b))
	}
	const maxLog = 8.8029691931113054295988e+01 // math.tanh's log(2**127)
	for _, edge := range []float64{0.625, 0.5 * maxLog} {
		x := tanhArgEdge(edge)
		for d := -2; d <= 2; d++ {
			v := math.Float32frombits(math.Float32bits(x) + uint32(d))
			out = append(out, v, -v)
		}
	}
	return out
}

// tanhArgEdge is the smallest positive float32 x whose tanh argument
// c*(x + 0.044715x³), formed as geluOracle forms it, reaches edge
// (the argument is increasing in x, so this is a bisection on bits).
func tanhArgEdge(edge float64) float32 {
	const c = 0.7978845608028654
	u := func(b uint32) float64 {
		x := float64(math.Float32frombits(b))
		return c * (x + 0.044715*x*x*x)
	}
	lo, hi := uint32(0), math.Float32bits(math.MaxFloat32) // u(lo) < edge <= u(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if u(mid) < edge {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float32frombits(hi)
}

// TestGELUMatchesOracle holds geluRef, geluElems (the vector body
// where the host has AVX) and Mat.GELU (forked and serial) to geluOracle
// by Float32bits: geluSpecials plus a strided sweep of every float32 bit
// pattern, fed in odd lengths so both the two-element pass and the
// one-element tail run, at every offset parity.
func TestGELUMatchesOracle(t *testing.T) {
	const stride = 1021 // prime: the sweep visits every exponent and both signs, with varied mantissas
	in := geluSpecials()
	for b := uint64(0); b < 1<<32; b += stride {
		in = append(in, math.Float32frombits(uint32(b)))
	}
	want := make([]float32, len(in))
	for i, v := range in {
		want[i] = geluOracle(v)
	}
	check := func(what string, got []float32) {
		t.Helper()
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s(%#08x) = %#08x, oracle %#08x", what, math.Float32bits(in[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	got := make([]float32, len(in))
	for _, body := range []struct {
		name string
		f    func([]float32)
	}{{"geluRef", geluRef}, {"geluElems", geluElems}} {
		for _, n := range []int{1, 3, 4099} {
			copy(got, in)
			for lo := 0; lo < len(got); lo += n {
				body.f(got[lo:min(lo+n, len(got))])
			}
			check(body.name, got)
		}
	}
	for _, par := range []int{1, 2, 3} {
		prev := SetParallelism(par)
		copy(got, in)
		Mat{R: 1, C: len(got), Data: got}.GELU()
		SetParallelism(prev)
		check("Mat.GELU", got)
	}
}
