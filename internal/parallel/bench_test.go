package parallel

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// spinSink keeps spin's arithmetic observable.
var spinSink [64]uint64

// spin is iters dependent multiply-adds (a 64-bit LCG step: the next
// value needs the last, so the loop cannot be folded, vectorized or
// overlapped) — arithmetic with no memory traffic, so two cores running
// it do not compete for anything.
func spin(slot, iters int) {
	x := uint64(slot) | 1
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink[slot&63] = x
}

// spinPerMicro is how many spin iterations make a microsecond on the
// reference guest (a multiply and an add in a chain: four cycles). The
// work sizes below are nominal: the p1 rows say what they cost on the
// host at hand.
const spinPerMicro = 700

// BenchmarkForkJoin is where the pool's constants and internal/tensor's
// thresholds come from: one fork of 8 items whose arithmetic totals 0,
// 15, 75 or 300 µs, at one worker (the serial loop: the work itself)
// and at GOMAXPROCS, with the workers hot (forks back to back — a decode
// step) and after every worker has been left to park (the first fork
// after a pause). ns/op is the caller's time inside For. poll is one
// iteration of an idle worker's loop, the unit hotPolls is counted in.
// Run with -benchtime 2s or longer: a guest takes hundreds of
// milliseconds to spread two spinning threads over two vCPUs, and a
// shorter run reads 1.0×.
func BenchmarkForkJoin(b *testing.B) {
	const items = 8
	for _, us := range []int{0, 15, 75, 300} {
		iters := us * spinPerMicro / items
		body := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				spin(i, iters)
			}
		}
		for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
			for _, start := range []string{"hot", "parked"} {
				if par == 1 && start == "parked" {
					continue
				}
				b.Run(fmt.Sprintf("work=%dus/p%d/%s", us, par, start), func(b *testing.B) {
					defer Set(Set(par))
					var inFor time.Duration
					for i := 0; i < b.N; i++ {
						if start == "parked" {
							for shared.parked.Load() < shared.spawned.Load() {
								runtime.Gosched()
							}
						}
						t0 := time.Now()
						For(items, 1, body)
						inFor += time.Since(t0)
					}
					b.ReportMetric(float64(inFor.Nanoseconds())/float64(b.N), "ns/op")
				})
			}
		}
	}
	b.Run("poll", func(b *testing.B) {
		resets := 0
		for idle := 0; idle < b.N; idle++ {
			if shared.unclaimed.Load() <= 0 {
				if idle%taskCheck != taskCheck-1 {
					continue
				}
				if shared.task.Load() != nil {
					resets++
				} else if idle%flightCheck == flightCheck-1 && shared.state.Load() != 0 {
					resets++
				}
				continue
			}
		}
		spinSink[0] = uint64(resets)
	})
}

// BenchmarkTaskPostJoin is one background round of 8 items totalling the
// given arithmetic, beside forks that keep the pool's worker hot (hot) or
// with every worker left to park first (parked: the owner runs it all).
// ns/op is the owner's time in Post and Join — what the round costs the
// goroutine that needs its result; worker-share is the fraction of items
// pool workers ran.
func BenchmarkTaskPostJoin(b *testing.B) {
	const items = 8
	noop := func(lo, hi int) {}
	for _, us := range []int{0, 15, 75} {
		iters := us * spinPerMicro / items
		body := func(i int) { spin(i, iters) }
		for _, start := range []string{"hot", "parked"} {
			b.Run(fmt.Sprintf("work=%dus/%s", us, start), func(b *testing.B) {
				defer Set(Set(runtime.GOMAXPROCS(0)))
				var task Task
				var owner time.Duration
				helped := 0
				for i := 0; i < b.N; i++ {
					if start == "parked" {
						for shared.parked.Load() < shared.spawned.Load() {
							runtime.Gosched()
						}
					} else {
						For(items, 1, noop)
					}
					t0 := time.Now()
					task.Post(items, body)
					helped += task.Join()
					owner += time.Since(t0)
				}
				b.ReportMetric(float64(owner.Nanoseconds())/float64(b.N), "ns/op")
				b.ReportMetric(float64(helped)/float64(items*b.N), "worker-share")
			})
		}
	}
}
