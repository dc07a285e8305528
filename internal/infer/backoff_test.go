package infer

import (
	"context"
	"math"
	"testing"
	"time"
)

// The backoff sequence must be total over the whole int range —
// positive, capped, and monotone non-decreasing — because the retry
// loop's attempt counter is caller-controlled and a shift past 63 bits
// would otherwise overflow time.Duration into nonsense (including
// negative pauses, which Retry.pause would skip, silently turning
// backoff off exactly when storage is at its sickest).
func TestDefaultBackoffMonotoneCappedTotal(t *testing.T) {
	attempts := []int{math.MinInt, -1000, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 63, 64, 65, 1000, 1 << 20, math.MaxInt}
	for _, a := range attempts {
		d := DefaultBackoff(a)
		if d <= 0 {
			t.Errorf("DefaultBackoff(%d) = %v, want positive", a, d)
		}
		if d > maxBackoff {
			t.Errorf("DefaultBackoff(%d) = %v exceeds cap %v", a, d, maxBackoff)
		}
	}
	prev := time.Duration(0)
	for a := 1; a <= 10_000; a++ {
		d := DefaultBackoff(a)
		if d < prev {
			t.Fatalf("backoff not monotone: attempt %d gives %v after %v", a, d, prev)
		}
		prev = d
	}
	// The documented prefix: 1, 2, 4, 8, 16, 32 ms, then the cap.
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond,
		maxBackoff, maxBackoff,
	}
	for i, w := range want {
		if got := DefaultBackoff(i + 1); got != w {
			t.Errorf("DefaultBackoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// JitteredBackoff must stay inside [DefaultBackoff(n)/2,
// DefaultBackoff(n)] for every attempt (so the monotone cap and
// worst-case total of the bare schedule survive jittering), replay
// identically for the same seed, and actually desynchronize distinct
// seeds — the whole point is that N replicas retrying a shared-store
// transient stop backing off in lockstep.
func TestJitteredBackoffBoundedSeededDivergent(t *testing.T) {
	attempts := []int{math.MinInt, -1, 0, 1, 2, 3, 6, 7, 64, 1000, math.MaxInt}
	for _, seed := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
		b := JitteredBackoff(seed)
		for _, a := range attempts {
			d := b(a)
			base := DefaultBackoff(a)
			if d < base/2 || d > base {
				t.Errorf("seed %d attempt %d: %v outside [%v, %v]", seed, a, d, base/2, base)
			}
		}
	}
	// Same seed, same schedule — byte-for-byte replayable.
	x, y := JitteredBackoff(7), JitteredBackoff(7)
	for a := 1; a <= 100; a++ {
		if x(a) != y(a) {
			t.Fatalf("seed 7 diverges from itself at attempt %d", a)
		}
	}
	// Distinct seeds must disagree somewhere in the first few attempts;
	// identical schedules would mean the jitter is not consuming the
	// seed.
	a, b := JitteredBackoff(1), JitteredBackoff(2)
	same := true
	for n := 1; n <= 10; n++ {
		if a(n) != b(n) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical schedules")
	}
}

// The batch path must not retry permanent errors either: a lockstep
// step on a retrying engine whose store fails permanently gives up after
// exactly one attempt — retrying corruption or missing tensors B times
// per layer would turn one bad record into a stall for every sequence of
// the step.
func TestResilientStoreBatchPathNeverRetriesPermanent(t *testing.T) {
	mc := tinyOPT()
	ps := &permStore{}
	r, pauses := pauseCounter(5)
	se, err := NewStepEnginePrefetched(context.Background(), mc, ps, r)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := lockstep(context.Background(), se, [][]int{{1}, {2}, {3}}, 2); err == nil {
		t.Fatal("batch generation over a permanently failing store succeeded")
	}
	if ps.calls != 1 {
		t.Errorf("permanent error hit the backing store %d times on the batch path, want 1", ps.calls)
	}
	if *pauses != 0 {
		t.Errorf("batch path retried a permanent error %d times", *pauses)
	}
}
