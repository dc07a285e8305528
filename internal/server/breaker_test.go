package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"helmsim/internal/fault"
	"helmsim/internal/infer"
)

// fakeClock is an injectable breaker clock (single-goroutine tests).
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(t *testing.T, cfg BreakerConfig) (*Breaker, *fakeClock) {
	t.Helper()
	b, err := NewBreaker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

var errTransientTest = fmt.Errorf("flaky read: %w", fault.ErrTransient)

func TestBreakerConfigValidation(t *testing.T) {
	bad := []BreakerConfig{
		{Window: -1},
		{MinSamples: -2},
		{Window: 4, MinSamples: 8}, // floor above window
		{TripRate: 1.5},
		{TripRate: -0.1},
		{Cooldown: -time.Second},
		{Probes: -1},
	}
	for i, cfg := range bad {
		if _, err := NewBreaker(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	if _, err := NewBreaker(BreakerConfig{}); err != nil {
		t.Errorf("zero config (defaults) rejected: %v", err)
	}
}

func TestBreakerTripsOnlyPastSampleFloor(t *testing.T) {
	b, _ := testBreaker(t, BreakerConfig{Window: 8, MinSamples: 4, TripRate: 0.5, Cooldown: time.Second})
	// One failure out of one observation is a 100% rate but below the
	// floor: must not trip.
	b.Record(errTransientTest)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("tripped below sample floor: %v", st)
	}
	b.Record(nil)
	b.Record(errTransientTest)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("tripped below sample floor: %v", st)
	}
	// Fourth observation reaches the floor at 3/4 failing: trip.
	b.Record(errTransientTest)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %v after crossing trip rate, want open", st)
	}
	if s := b.Snapshot(); s.Trips != 1 {
		t.Errorf("trips = %d, want 1", s.Trips)
	}
	if probe, ok := b.Allow(); ok || probe {
		t.Error("open breaker admitted a request before cooldown")
	}
}

func TestBreakerIgnoresPermanentErrors(t *testing.T) {
	b, _ := testBreaker(t, BreakerConfig{Window: 8, MinSamples: 2, TripRate: 0.5})
	for i := 0; i < 20; i++ {
		b.Record(errors.New("corrupt record")) // permanent: not a load signal
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("permanent errors tripped the breaker: %v", st)
	}
	if s := b.Snapshot(); s.WindowFill != 0 {
		t.Errorf("permanent errors entered the window: fill %d", s.WindowFill)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	b, clk := testBreaker(t, BreakerConfig{Window: 8, MinSamples: 2, TripRate: 0.5, Cooldown: time.Second, Probes: 1})
	b.Record(errTransientTest)
	b.Record(errTransientTest)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}
	if ra := b.RetryAfter(); ra != time.Second {
		t.Errorf("RetryAfter = %v, want full cooldown", ra)
	}
	clk.advance(500 * time.Millisecond)
	if _, ok := b.Allow(); ok {
		t.Fatal("admitted during cooldown")
	}
	clk.advance(600 * time.Millisecond)
	probe, ok := b.Allow()
	if !ok || !probe {
		t.Fatalf("post-cooldown Allow = (probe %v, ok %v), want a probe", probe, ok)
	}
	// Only Probes concurrent probes fit.
	if _, ok := b.Allow(); ok {
		t.Fatal("second concurrent probe admitted with Probes=1")
	}
	b.ProbeDone(true)
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if s := b.Snapshot(); s.Recoveries != 1 || s.WindowFill != 0 {
		t.Errorf("snapshot after recovery: %+v", s)
	}
	if probe, ok := b.Allow(); !ok || probe {
		t.Errorf("closed breaker Allow = (probe %v, ok %v)", probe, ok)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := testBreaker(t, BreakerConfig{Window: 8, MinSamples: 2, TripRate: 0.5, Cooldown: time.Second, Probes: 1})
	b.Record(errTransientTest)
	b.Record(errTransientTest)
	clk.advance(time.Second)
	if probe, ok := b.Allow(); !ok || !probe {
		t.Fatal("probe not admitted after cooldown")
	}
	b.ProbeDone(false)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open again", st)
	}
	s := b.Snapshot()
	if s.Trips != 1 || s.Reopens != 1 {
		t.Errorf("failed probe should count as a reopen of the same incident: %+v", s)
	}
	// The new cooldown starts from the reopen.
	if _, ok := b.Allow(); ok {
		t.Fatal("admitted immediately after reopen")
	}
	clk.advance(time.Second)
	if probe, ok := b.Allow(); !ok || !probe {
		t.Fatal("probe not re-admitted after second cooldown")
	}
	// An aborted probe frees the slot without a verdict.
	b.ProbeAbort()
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state after aborted probe = %v, want half-open", st)
	}
	if probe, ok := b.Allow(); !ok || !probe {
		t.Fatal("slot not released by ProbeAbort")
	}
}

// TestAbortedProbeFreesItsSlot drives the daemon's probe accounting: a
// half-open probe that fails for a non-storage reason (a step panic)
// says nothing about storage health, so its request must give the slot
// back with ProbeAbort. The next request then probes and, succeeding,
// closes the breaker; a probe that kept its slot would leave the
// breaker half-open with nothing free, shedding every later request.
func TestAbortedProbeFreesItsSlot(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 4)
	ps := &panicStore{backing: w}
	s, ts := startServer(t, Config{
		Model:     mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) { return ps, nil, nil },
		// One transient in any window of four trips it.
		Breaker: BreakerConfig{Window: 4, MinSamples: 1, TripRate: 0.25, Cooldown: time.Millisecond, Probes: 1},
	})
	s.breaker.Record(errTransientTest)
	if st := s.breaker.State(); st != BreakerOpen {
		t.Fatalf("breaker %v after a transient, want open", st)
	}
	time.Sleep(10 * time.Millisecond) // past the cooldown: the next request probes
	ps.setPanics(true)
	if status, _, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1}, MaxTokens: 2}); status != http.StatusInternalServerError {
		t.Fatalf("panicked probe got %d (%s), want 500", status, msg)
	}
	if b := s.Stats().Breaker; b.State != "half-open" || b.Probing != 0 {
		t.Fatalf("after the aborted probe: %+v, want half-open with no probe held", b)
	}
	ps.setPanics(false)
	if status, _, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1}, MaxTokens: 2}); status != http.StatusOK {
		t.Fatalf("request after the aborted probe got %d (%s), want 200 as the next probe", status, msg)
	}
	if b := s.Stats().Breaker; b.State != "closed" || b.Recoveries != 1 {
		t.Errorf("after the second probe succeeded: %+v, want closed with one recovery", b)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	// Old failures age out: after Window successes, ancient failures
	// cannot contribute to a trip.
	b, _ := testBreaker(t, BreakerConfig{Window: 4, MinSamples: 4, TripRate: 0.75, Cooldown: time.Second})
	b.Record(errTransientTest)
	b.Record(errTransientTest)
	for i := 0; i < 4; i++ {
		b.Record(nil)
	}
	b.Record(errTransientTest) // 1/4 failing in the current window
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("aged-out failures tripped the breaker: %v", st)
	}
	s := b.Snapshot()
	if s.WindowFill != 4 || s.FailureRate != 0.25 {
		t.Errorf("window snapshot %+v, want fill 4 rate 0.25", s)
	}
}

func TestBreakerStateString(t *testing.T) {
	for st, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open", BreakerState(9): "BreakerState(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}
