package infer

import (
	"fmt"
	"time"
)

// Retry bounds and paces a step engine's foreground re-attempts after
// transient weight-store failures — the one place the serving stack
// retries a fetch. A foreground tensor fetch reads the store at most
// 1 + Max times; nothing above it re-reads the layer, and the batcher
// fails a faulted step's requests instead of re-running the step. A
// posted (background) fetch is a single read whose failure sends the
// layer to the foreground. Errors are classified through
// fault.IsTransient: only retryable failures (injected or real I/O
// hiccups marked transient) are re-attempted; permanent ones —
// corruption, missing tensors, closed checkpoints, cancelled contexts —
// are read once and surface immediately.
//
// Backoff is deterministic by design: an out-of-core serving
// experiment must be reproducible fault-for-fault, so there is no
// jitter, and tests inject a recording Sleep to keep wall time at zero.
type Retry struct {
	// Max is the number of re-attempts after the first try (0 disables
	// retrying).
	Max int
	// Backoff returns the pause before re-attempt n (1-based); nil uses
	// DefaultBackoff.
	Backoff func(attempt int) time.Duration
	// Sleep is the injectable clock; nil uses time.Sleep.
	Sleep func(time.Duration)
}

// Validate rejects nonsensical policies.
func (r Retry) Validate() error {
	if r.Max < 0 {
		return fmt.Errorf("infer: negative retry count %d", r.Max)
	}
	return nil
}

// maxBackoff caps DefaultBackoff: past it, waiting longer only delays
// the inevitable exhaustion verdict.
const maxBackoff = 50 * time.Millisecond

// DefaultBackoff is deterministic exponential backoff: 1 ms, 2 ms,
// 4 ms, ... capped at maxBackoff. It saturates instead of shifting for
// large attempt counts — time.Duration is an int64, so a naive
// 1ms << (attempt-1) overflows (and for attempt-1 >= 64 is undefined)
// long before a retry loop would legitimately reach such attempts — and
// it clamps non-positive attempts to the first step, so the sequence is
// total, positive, and monotone non-decreasing over the whole int range.
func DefaultBackoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	// 1ms << 6 = 64ms already exceeds the cap, so any shift of 6 or
	// more saturates; this also keeps the shift far away from the
	// 63-bit overflow edge.
	if attempt-1 >= 6 {
		return maxBackoff
	}
	d := time.Millisecond << (attempt - 1)
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// JitteredBackoff is DefaultBackoff with seeded deterministic jitter:
// re-attempt n pauses for a duration in [DefaultBackoff(n)/2,
// DefaultBackoff(n)]. A fleet of replicas retrying a shared-store
// transient on the bare schedule backs off in lockstep and re-collides
// every attempt; distinct per-replica seeds desynchronize the storm
// while keeping every schedule reproducible — the same seed always
// yields the same pauses, so tests and simulations replay exactly. The
// jittered schedule stays within DefaultBackoff's cap and keeps its
// worst-case total.
func JitteredBackoff(seed int64) func(attempt int) time.Duration {
	return func(attempt int) time.Duration {
		base := DefaultBackoff(attempt)
		if attempt < 1 {
			attempt = 1
		}
		h := backoffMix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(attempt))
		half := uint64(base / 2)
		return time.Duration(half + half*(h%1024)/1024 + 1)
	}
}

// backoffMix is the SplitMix64 finalizer, a cheap well-mixed hash for
// the jitter draw.
func backoffMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pause sleeps before re-attempt n using the policy's clock.
func (r Retry) pause(attempt int) {
	b := r.Backoff
	if b == nil {
		b = DefaultBackoff
	}
	d := b(attempt)
	if d <= 0 {
		return
	}
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}
