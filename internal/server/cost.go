package server

import (
	"fmt"
	"time"

	"helmsim/internal/serve"
)

// CostConfig tunes token-budget admission and brownout overload
// control. Every admission decision is priced in estimated tokens —
// prompt length plus the output-length predictor's decode bucket — so
// a 4k-token RAG prefill and a 10-token chat turn stop being
// interchangeable units of load. A zero TokenBudget disables cost
// admission and brownout entirely (per-class budgets still apply when
// set), preserving the count-only behavior.
type CostConfig struct {
	// TokenBudget caps the admitted-cost backlog in estimated tokens:
	// an arrival whose estimate does not fit is rejected with 429 and
	// Retry-After. It is also the denominator of the brownout
	// thresholds. 0 disables both.
	TokenBudget int
	// ClassBudgets caps each class's own backlog share, keyed by the
	// class wire name ("interactive", "rag", "batch"); absent or zero
	// means no per-class cap. A per-class cap protects the other
	// classes from one class's burst even before brownout engages.
	ClassBudgets map[string]int
	// BrownoutHigh, BrownoutLow, and BrownoutSustain tune the shared
	// serve.Brownout machine (zero values take its documented
	// defaults: 0.8, 0.5, 8).
	BrownoutHigh, BrownoutLow float64
	BrownoutSustain           int
	// BrownoutRetryAfter is the Retry-After advertised on brownout
	// rejections (default 2s): honest backpressure, not a silent drop.
	BrownoutRetryAfter time.Duration
	// PredictorSeed seeds the output-length predictor (default 1).
	// Replicas of one fleet should share it so their cost estimates —
	// and therefore their advertised backlogs — are comparable.
	PredictorSeed int64
}

func (c CostConfig) withDefaults() CostConfig {
	if c.BrownoutRetryAfter == 0 {
		c.BrownoutRetryAfter = 2 * time.Second
	}
	if c.PredictorSeed == 0 {
		c.PredictorSeed = 1
	}
	return c
}

// Validate rejects unusable cost configurations (after defaulting).
func (c CostConfig) Validate() error {
	c = c.withDefaults()
	if c.TokenBudget < 0 {
		return fmt.Errorf("server: negative token budget %d", c.TokenBudget)
	}
	for name, b := range c.ClassBudgets {
		if _, err := serve.ParseClass(name); err != nil || name == "" {
			return fmt.Errorf("server: class budget for unknown class %q", name)
		}
		if b < 0 {
			return fmt.Errorf("server: negative class budget %d for %q", b, name)
		}
	}
	if c.BrownoutHigh < 0 || c.BrownoutHigh > 1 || c.BrownoutLow < 0 || c.BrownoutLow > 1 {
		return fmt.Errorf("server: brownout thresholds outside [0,1]: high %v low %v", c.BrownoutHigh, c.BrownoutLow)
	}
	hi, lo := c.BrownoutHigh, c.BrownoutLow
	if hi == 0 {
		hi = 0.8
	}
	if lo == 0 {
		lo = 0.5
	}
	if lo > hi {
		return fmt.Errorf("server: brownout low water %v above high water %v", lo, hi)
	}
	if c.BrownoutSustain < 0 {
		return fmt.Errorf("server: negative brownout sustain %d", c.BrownoutSustain)
	}
	if c.BrownoutRetryAfter < 0 {
		return fmt.Errorf("server: negative brownout retry-after %v", c.BrownoutRetryAfter)
	}
	return nil
}

// costState is the server's admission-cost bookkeeping, guarded by the
// server's own mu (the brownout machine must observe a consistent
// backlog, and admission already holds the lock).
type costState struct {
	backlog      int
	classBacklog [serve.NumClasses]int
	classWaiting [serve.NumClasses]int
	brown        *serve.Brownout
}

// resolveClassBudgets turns the name-keyed config map into a
// class-indexed array.
func resolveClassBudgets(m map[string]int) [serve.NumClasses]int {
	var out [serve.NumClasses]int
	for name, b := range m {
		if c, err := serve.ParseClass(name); err == nil && name != "" {
			out[c] = b
		}
	}
	return out
}

// releaseCost settles a job's admitted cost exactly once (the worker
// calls it after the job settles, whatever the outcome) and gives the
// brownout machine its drain-side observation — this is how the daemon
// exits brownout when load drops, even with no new arrivals.
func (s *Server) releaseCost(j *job) {
	if j.est == 0 {
		return
	}
	s.mu.Lock()
	s.cost.backlog -= j.est
	s.cost.classBacklog[j.class] -= j.est
	s.cost.brown.Release(s.cost.backlog)
	s.mu.Unlock()
}
