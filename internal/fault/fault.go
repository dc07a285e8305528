// Package fault is a seeded, reproducible fault injector for the
// out-of-core serving path. The paper's argument rests on re-reading
// every weight from a slower, failure-prone tier (Optane/FSDAX/SSD,
// §IV–V) on every decoded token; this package makes that tier's failure
// modes — transient read errors, silent bit flips, latency stragglers —
// injectable at two levels: per tensor access (Store, wrapping a weight
// store) and per byte-range read (ReaderAt, wrapping the checkpoint
// file's io.ReaderAt), so resilience machinery above can be
// characterized deterministically.
//
// Every injector is driven by a Plan: a seed plus rates and exact
// access triggers. Two runs with the same plan over the same access
// sequence inject the same faults.
//
// Errors injected as transient wrap ErrTransient; retry layers classify
// with IsTransient. Corruption is silent by design — it flips payload
// bits and returns success, modelling the bit rot that checkpoint
// integrity checking (checkpoint.ErrCorrupt) exists to catch.
package fault

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrTransient marks an injected (or real) error as retryable: a higher
// layer may re-attempt the operation and expect it to eventually
// succeed. Permanent failures — corruption, missing tensors, closed
// files, cancelled contexts — never wrap it.
var ErrTransient = errors.New("transient fault")

// IsTransient reports whether err is retryable: it wraps ErrTransient
// or carries a Transient() bool method anywhere in its chain.
func IsTransient(err error) bool {
	if errors.Is(err, ErrTransient) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Plan configures an injector. The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision; runs with equal seeds
	// and equal access sequences inject identical faults.
	Seed int64

	// TransientRate is the per-access probability of a transient error.
	TransientRate float64
	// FailAtAccess makes exactly the N-th armed access (1-based) fail
	// with a transient error; 0 disables.
	FailAtAccess int64

	// CorruptRate is the per-access probability of silently flipping one
	// bit of the returned data.
	CorruptRate float64
	// CorruptAtAccess flips one bit of exactly the N-th armed access
	// (1-based); 0 disables.
	CorruptAtAccess int64

	// SpikeRate is the per-access probability of a latency spike of
	// Spike duration (a straggler read).
	SpikeRate float64
	// Spike is the injected straggler latency.
	Spike time.Duration
	// Sleep is the injectable clock used for spikes; nil means
	// time.Sleep. Tests supply a recording stub so plans with spikes
	// stay instant and observable.
	Sleep func(time.Duration)
}

// Validate rejects nonsensical plans.
func (p Plan) Validate() error {
	switch {
	case p.TransientRate < 0 || p.TransientRate > 1:
		return errors.New("fault: transient rate outside [0,1]")
	case p.CorruptRate < 0 || p.CorruptRate > 1:
		return errors.New("fault: corrupt rate outside [0,1]")
	case p.SpikeRate < 0 || p.SpikeRate > 1:
		return errors.New("fault: spike rate outside [0,1]")
	case p.FailAtAccess < 0 || p.CorruptAtAccess < 0:
		return errors.New("fault: negative access trigger")
	case p.Spike < 0:
		return errors.New("fault: negative spike duration")
	}
	return nil
}

// Stats counts what an injector has done so far.
type Stats struct {
	// Accesses is the number of armed operations observed.
	Accesses int64
	// Transients is the number of injected transient errors.
	Transients int64
	// Corruptions is the number of silently bit-flipped payloads.
	Corruptions int64
	// Spikes is the number of injected latency stragglers.
	Spikes int64
}

// outcome is one access's injection decision.
type outcome struct {
	access   int64 // 1-based armed access number
	fail     bool
	corrupt  bool
	spike    bool
	bitIndex int64 // which bit to flip, modulo the payload size
}

// injector is the shared seeded decision core. The mutex both protects
// the rng and makes the access ordering — and with it the fault
// sequence — well-defined under concurrent use.
type injector struct {
	plan Plan

	mu       sync.Mutex
	rng      *rand.Rand
	disarmed bool
	stats    Stats
}

func newInjector(plan Plan) injector {
	return injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// SetArmed enables or disables injection (stats and the access counter
// pause while disarmed) and returns the previous state. Disarming lets
// a caller open and index a checkpoint cleanly, then inject only on the
// serving path.
func (in *injector) SetArmed(armed bool) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	prev := !in.disarmed
	in.disarmed = !armed
	return prev
}

// Stats reports the injection counts so far.
func (in *injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decide consumes one access, sampling the plan. It never sleeps while
// holding the lock; the caller applies the spike. An access whose payload
// cannot be flipped (corruptible false) still draws its corruption
// sample, so the rng stream is the same whichever accesses those are,
// but never comes back corrupt and is not counted as a corruption.
func (in *injector) decide(corruptible bool) (outcome, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.disarmed {
		return outcome{}, false
	}
	in.stats.Accesses++
	o := outcome{access: in.stats.Accesses}
	p := in.plan
	// Sampling order is fixed (spike, transient, corrupt) so a plan's
	// rng stream is stable regardless of which triggers are enabled at
	// zero rate.
	if p.SpikeRate > 0 && in.rng.Float64() < p.SpikeRate {
		o.spike = true
		in.stats.Spikes++
	}
	if (p.TransientRate > 0 && in.rng.Float64() < p.TransientRate) || p.FailAtAccess == o.access {
		o.fail = true
		in.stats.Transients++
		return o, true
	}
	if (p.CorruptRate > 0 && in.rng.Float64() < p.CorruptRate) || p.CorruptAtAccess == o.access {
		o.bitIndex = in.rng.Int63()
		if corruptible {
			o.corrupt = true
			in.stats.Corruptions++
		}
	}
	return o, true
}

// sleep applies a spike outside the lock.
func (in *injector) sleep() {
	if in.plan.Spike <= 0 {
		return
	}
	if in.plan.Sleep != nil {
		in.plan.Sleep(in.plan.Spike)
		return
	}
	time.Sleep(in.plan.Spike)
}
