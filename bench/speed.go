package main

import (
	"sort"
	"sync"
	"time"
)

// The box the benchmark runs on is two virtual cores of a shared host.
// How fast they compute moves by up to 1.8× for seconds to an hour at a
// time (who else is on the physical core), which no run length within
// the time the benchmark is given averages out: unscaled, ten runs of
// one commit spread 25–45 % around their median. So the harness times a
// fixed kernel of its own every 50 ms while a workload runs, and
// scales every duration it reports by the speed measured around it: a
// metric reads what the program would have taken on a host that runs
// the kernel in its reference time. The kernel is this file's and never
// the program's, so no change to the repository can move it; the raw
// host speed of a run is reported as host.slowdown.

// The kernel is compute-bound, so its time moves with the host's
// compute speed in full. A workload's time moves by some factor of
// that: less where it waits for memory, which a busy host barely slows;
// more on the fleet, where a tiny model's request is goroutine wake-ups
// and timers more than arithmetic, and a busy host delays those more
// than it slows arithmetic. time ∝ 1 + follow·(slowdown − 1); the
// factors were fitted on the box the benchmark was sized on, by
// regressing the raw medians of 30 runs per workload on the kernel's
// while the host ran between 1.0× and 1.8× its quiet speed (README.md
// has the fit and how to redo it after a change that moves a workload's
// balance). A stale factor does not bias a comparison made in one
// sitting; it lets the host's speed back into the metric.
const (
	followOOC             = 0.9  // dequant, and GEMV over what it just wrote
	followResidentPrefill = 0.9  // GEMM
	followResidentDecode  = 0.35 // 49 MB of f32 weights streamed per token
	followBatch           = 0.7  // the out-of-core engine at ~5 sequences a step
	followFleet           = 1.25
	followSetup           = 0.5 // one goroutine, the other core idle
)

const (
	probeElems = 128 << 10 // two f32 vectors of this length: 1 MiB, in L2
	probePass  = 6
	// probeRefMS is the kernel's median time beside a busy workload on
	// the box the benchmark was sized on in a quiet stretch, so that
	// scaled numbers read like that box's raw ones.
	probeRefMS = 0.50
	// pollEvery is the kernel's period: about 1 % of one core.
	pollEvery = 50 * time.Millisecond
	// pollPad widens the interval a duration is scaled over, so that it
	// holds ten readings or more.
	pollPad = 250 * time.Millisecond
)

type speedReading struct {
	at time.Time
	ms float64
}

// speedTrack is the time series of kernel readings of one pass over a
// work list. The kernel runs on one goroutine every pollEvery, beside
// whatever the workload is doing.
type speedTrack struct {
	x, y     []float32
	stopOnce sync.Once
	quit     chan struct{}
	done     chan struct{}

	mu       sync.Mutex
	readings []speedReading
	sink     float32
}

// startSpeedTrack takes the first readings itself, so that whatever is
// timed next has some, and polls until stop.
func startSpeedTrack() *speedTrack {
	s := &speedTrack{
		x: make([]float32, probeElems), y: make([]float32, probeElems),
		quit: make(chan struct{}), done: make(chan struct{}),
		readings: make([]speedReading, 0, 4096),
	}
	for i := range s.x {
		s.x[i], s.y[i] = float32(i%7)*0.25, float32(i%5)*0.5
	}
	for i := 0; i < 3; i++ {
		s.read()
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.read()
			}
		}
	}()
	return s
}

// stop ends the polling and waits for the last reading.
func (s *speedTrack) stop() {
	s.stopOnce.Do(func() { close(s.quit) })
	<-s.done
}

// read times the kernel once: a dot product in four independent chains,
// compute-bound, as the share of the program's time that follows the
// host's speed is (its streaming share barely moves).
func (s *speedTrack) read() {
	start := time.Now()
	var a0, a1, a2, a3 float32
	x, y := s.x, s.y
	for p := 0; p < probePass; p++ {
		for i := 0; i+3 < len(x); i += 4 {
			a0 += x[i] * y[i]
			a1 += x[i+1] * y[i+1]
			a2 += x[i+2] * y[i+2]
			a3 += x[i+3] * y[i+3]
		}
	}
	end := time.Now()
	s.mu.Lock()
	s.sink += a0 + a1 + a2 + a3
	s.readings = append(s.readings, speedReading{start.Add(end.Sub(start) / 2), ms(end.Sub(start))})
	s.mu.Unlock()
}

// slowdown is how much slower than the reference the host computed
// over [from, to]: the mean reading taken in the interval widened by
// pollPad (the nearest reading on each side when that holds none) over
// the reference time. The mean, because beside a workload that leaves a
// core idle part of the time the readings have two modes.
func (s *speedTrack) slowdown(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.readings
	after := func(t time.Time) int { return sort.Search(len(r), func(i int) bool { return r[i].at.After(t) }) }
	lo, hi := after(from.Add(-pollPad)), after(to.Add(pollPad))
	if lo == hi {
		lo, hi = max(lo-1, 0), min(hi+1, len(r))
	}
	var sum float64
	for _, v := range r[lo:hi] {
		sum += v.ms
	}
	return sum / float64(hi-lo) / probeRefMS
}

// atRef is the duration of [from, to] at reference host speed, in ms,
// for work that follows the host's compute speed by the factor follow.
func (s *speedTrack) atRef(from, to time.Time, follow float64) float64 {
	return ms(to.Sub(from)) / (1 + follow*(s.slowdown(from, to)-1))
}

// wallAtRef is atRef for a window long enough for the host's speed to
// change within it: each second is scaled by its own readings.
func (s *speedTrack) wallAtRef(from, to time.Time, follow float64) float64 {
	var sum float64
	for from.Before(to) {
		next := from.Add(time.Second)
		if next.After(to) {
			next = to
		}
		sum += s.atRef(from, next, follow)
		from = next
	}
	return sum
}

// median is the pass's median slowdown: the raw host speed, reported so
// that a scaled metric can be turned back into the time it took.
func (s *speedTrack) median() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	vals := make([]float64, len(s.readings))
	for i, r := range s.readings {
		vals[i] = r.ms
	}
	return percentile(vals, 50) / probeRefMS
}
