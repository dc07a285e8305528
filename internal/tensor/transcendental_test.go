package tensor

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The vector transcendentals (geluAVX, siluAVX, expShiftAVX) against the
// scalar expressions they replace, through geluElems, siluElems and
// expShift as the kernels call them. Off amd64, or on a host without
// AVX, those are their Go twins and these hold the twins to the
// expressions.

var exhaustive = flag.Bool("exhaustive", false, "TestTranscendentalsExhaustive sweeps all 2^32 inputs instead of a stride")

// transcendental is one of the three element-wise functions: its body
// as the kernels run it, its Go twin, the scalar expression it stored
// before it had a vector body, and the float32 bit patterns it is held
// to over (pattern(j) for j < count).
type transcendental struct {
	name    string
	run     func([]float32)
	twin    func([]float32)
	oracle  func(float32) float32
	count   uint64
	pattern func(j uint64) uint32
}

// transcendentals are GELU and SiLU over every float32, and softmax's
// exponential over what attention feeds it, s[p]-max(s): every value
// with the sign bit set (-0, the negatives, -Inf, negative NaNs), then
// the positive NaNs, then +0.
func transcendentals() []transcendental {
	every := func(j uint64) uint32 { return uint32(j) }
	return []transcendental{
		{"gelu", geluElems, geluRef, geluOracle, 1 << 32, every},
		{"silu", siluElems, siluRef, func(v float32) float32 {
			x := float64(v)
			return float32(x / (1 + math.Exp(-x)))
		}, 1 << 32, every},
		{"softmax exp", func(s []float32) { expShift(s, 0) }, func(s []float32) { expShiftRef(s, 0) },
			func(v float32) float32 {
				const maxS = 0
				return float32(math.Exp(float64(v - maxS)))
			}, 1<<31 + 1<<23, func(j uint64) uint32 {
				switch {
				case j < 1<<31:
					return 1<<31 | uint32(j)
				case j < 1<<31+1<<23-1:
					return 0x7f800001 + uint32(j-1<<31)
				}
				return 0
			}},
	}
}

// TestTranscendentalsExhaustive holds GELU, SiLU and softmax's
// exponential, as the kernels run them, to the scalar expressions by
// Float32bits — NaN payloads included — over every input: all 2^32
// float32 patterns for GELU and SiLU, every value s[p]-max can take for
// the exponential. That is the whole contract of the vector bodies: the
// engine stores float32(...) of every transcendental, so float64
// results that differ (the scalar math.Exp takes an FMA body where the
// CPU has one, the vector body mirrors the non-FMA one) may not change
// a float32.
//
// The inputs go through in chunks of 4096 consecutive ones, each call
// 4096+t long for t = 0..3 in turn: the vector body covers the 4096 and
// the t-element tail takes the Go twin, and the next chunk starts where
// the vector part ended, so every input passes the vector body once.
// The full sweep (-exhaustive, as make kernel-oracles runs it) takes a
// few minutes on two cores; otherwise every 251st input is checked
// (every 2039th under the race detector, which instruments every load).
func TestTranscendentalsExhaustive(t *testing.T) {
	step := uint64(251)
	switch {
	case *exhaustive:
		step = 1
	case raceBuild:
		step = 2039
	}
	const chunk = 4096
	for _, tr := range transcendentals() {
		t.Run(tr.name, func(t *testing.T) {
			// Inputs visited, rounded up to whole vectors so that the last
			// chunk has no tail (a pattern past the count repeats one).
			n := ((tr.count+step-1)/step + 3) &^ 3
			chunks := (n + chunk - 1) / chunk
			workers := uint64(runtime.GOMAXPROCS(0))
			var wg sync.WaitGroup
			var mu sync.Mutex
			var fails []string
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]float32, chunk+3)
					for c := chunks * w / workers; c < chunks*(w+1)/workers; c++ {
						lo := c * chunk
						hi := min(n, lo+chunk+c%4)
						got := buf[:hi-lo]
						for i := range got {
							got[i] = math.Float32frombits(tr.pattern((lo + uint64(i)) * step))
						}
						tr.run(got)
						for i, g := range got {
							v := math.Float32frombits(tr.pattern((lo + uint64(i)) * step))
							if want := tr.oracle(v); math.Float32bits(g) != math.Float32bits(want) {
								mu.Lock()
								fails = append(fails, fmt.Sprintf("%s(%#08x = %g) = %#08x, scalar %#08x",
									tr.name, math.Float32bits(v), v, math.Float32bits(g), math.Float32bits(want)))
								mu.Unlock()
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			for _, f := range fails {
				t.Error(f)
			}
		})
	}
}

// transcendentalSpecials are the inputs where a lane select can go
// wrong: every awkward operand, GELU's tanh branch edges (geluSpecials),
// and the float32 values either side of math.Exp's edges at -x and x
// (SiLU exponentiates -x): k = 1024, past which exp overflows; k+1023 =
// 0 and -52, where its float64 result turns subnormal and then 0; and
// where the float32 result overflows, turns subnormal and then 0.
func transcendentalSpecials() []float32 {
	out := append(append([]float32(nil), awkward...), geluSpecials()...)
	for _, edge := range []float64{1023.5 * math.Ln2, 1022.5 * math.Ln2, 1075.5 * math.Ln2, 128 * math.Ln2, 126 * math.Ln2, 149 * math.Ln2} {
		for d := -2; d <= 2; d++ {
			v := math.Float32frombits(math.Float32bits(float32(edge)) + uint32(d))
			out = append(out, v, -v)
		}
	}
	return out
}

// Every length 0-70 and the engine's widths at every start offset in a
// vector, each call's neighbours sentinels: the vector bodies against
// their Go twins, a slice ending in a vector's worth of tail, the tail
// handled by the twin, and not one store outside the slice.
func TestTranscendentalsMatchTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	specials := transcendentalSpecials()
	for _, tr := range transcendentals() {
		for _, n := range kernelLengths() {
			for off := 0; off < 4; off++ {
				for mode := 0; mode < 3; mode++ {
					o := randOperand(rng, n, off, mode)
					if mode == 2 {
						for i := range o.s {
							o.s[i] = specials[rng.Intn(len(specials))]
						}
					}
					if tr.name == "softmax exp" {
						nonPositive(o.s)
					}
					want, got := o.clone(), o.clone()
					tr.twin(want.s)
					tr.run(got.s)
					assertSameBacking(t, fmt.Sprintf("%s, n %d, offset %d", tr.name, n, off), want, got)
				}
			}
		}
	}
}

// nonPositive negates every value above 0, leaving what softmax's
// exponential is fed: values at most 0, and NaNs.
func nonPositive(s []float32) {
	for i, v := range s {
		if v > 0 {
			s[i] = -v
		}
	}
}

// FuzzTranscendentals is the vector bodies' differential target:
// arbitrary bit patterns at any length and start offset through GELU and
// SiLU, and through softmax's exponential shifted by the slice's largest
// value, as attention shifts it, against the Go twins.
func FuzzTranscendentals(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 128, 191}, uint8(4), uint8(0))
	f.Add([]byte{0, 0, 192, 127, 0, 0, 128, 127, 0, 0, 128, 255, 1, 0, 0, 0, 0, 0, 0, 128}, uint8(5), uint8(3))
	f.Add([]byte{255, 255, 127, 127, 255, 255, 127, 255, 0, 0, 128, 0, 102, 102, 38, 64}, uint8(70), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n, off uint8) {
		at := 0
		o := newOperand(int(n), int(off)%4)
		floatsFromBytes(data, &at, o.s)
		for _, tr := range transcendentals()[:2] {
			want, got := o.clone(), o.clone()
			tr.twin(want.s)
			tr.run(got.s)
			assertSameBacking(t, tr.name, want, got)
		}
		maxS := float32(math.Inf(-1))
		for _, v := range o.s {
			if v > maxS {
				maxS = v
			}
		}
		want, got := o.clone(), o.clone()
		expShiftRef(want.s, maxS)
		expShift(got.s, maxS)
		assertSameBacking(t, "softmax exp", want, got)
	})
}
