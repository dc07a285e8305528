package serve

import "fmt"

// Class is a request priority class. Admission control and overload
// shedding are class-aware: when the system cannot serve everything, it
// degrades in a documented order — the lowest class sheds first, and
// within a class requests renege (client gone, deadline passed, waited
// past MaxWait) before fresh arrivals are rejected. Higher numeric
// value means higher priority, so "shed lowest first" is an iteration
// from 0 upward.
type Class int

const (
	// ClassBatch is offline work (summarization, evals): the first
	// class shed under pressure, the last to be protected.
	ClassBatch Class = iota
	// ClassRAG is retrieval-augmented traffic: long prefills, moderate
	// latency tolerance. Shed only after batch.
	ClassRAG
	// ClassInteractive is chat traffic: short prompts, tight latency.
	// Never shed by brownout — only hard caps (queue, budget) touch it.
	ClassInteractive

	// NumClasses is the number of request classes; ledgers indexed by
	// Class have exactly this many rows.
	NumClasses = 3
)

// String names the class as it appears on the wire (request "class"
// field, /statz rows).
func (c Class) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassRAG:
		return "rag"
	case ClassInteractive:
		return "interactive"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass maps a wire name to a Class. The empty string defaults to
// interactive: an unclassified client is a chat client, and defaulting
// low would let a misconfigured frontend silently shed its own users.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return ClassInteractive, nil
	case "rag":
		return ClassRAG, nil
	case "batch":
		return ClassBatch, nil
	}
	return 0, fmt.Errorf("serve: unknown request class %q (want interactive, rag, or batch)", s)
}

// Valid reports whether c is one of the declared classes.
func (c Class) Valid() bool { return c >= 0 && c < NumClasses }

// Predictor estimates decode length for admission-cost purposes. The
// paper's cost model (and the repo's engine) make token throughput
// memory-bound and near-linear in tokens processed, so "estimated
// prefill + decode tokens" is the right admission currency — but decode
// length is unknown at admission. Following the estimated-output-length
// scheduling line of work, the predictor buckets requests instead of
// guessing exactly: each class maps to a bucket ladder position
// (interactive answers are short, batch generations long), and a seeded
// hash of the prompt length picks within a two-bucket band so
// simulations exercise misprediction deterministically. No wall clock,
// no global randomness: the same seed and request always predict the
// same bucket.
type Predictor struct {
	seed    int64
	buckets []int
}

// defaultBuckets is the output-length bucket ladder in generated
// tokens. The top bucket is a cap, not a forecast.
var defaultBuckets = []int{8, 32, 128, 512}

// NewPredictor returns a predictor with the default bucket ladder.
func NewPredictor(seed int64) *Predictor {
	return &Predictor{seed: seed, buckets: defaultBuckets}
}

// PredictDecode estimates how many tokens a request of this class and
// prompt length will generate, clamped to the request's own cap. The
// result is always at least 1: every admitted request decodes.
func (p *Predictor) PredictDecode(class Class, promptLen, maxNew int) int {
	base := 0
	switch class {
	case ClassRAG:
		base = 1
	case ClassBatch:
		base = 2
	}
	h := splitmix64(uint64(p.seed)*0x9e3779b97f4a7c15 ^ uint64(promptLen)<<8 ^ uint64(class))
	idx := base + int(h%2)
	if idx >= len(p.buckets) {
		idx = len(p.buckets) - 1
	}
	pred := p.buckets[idx]
	if maxNew > 0 && pred > maxNew {
		pred = maxNew
	}
	if pred < 1 {
		pred = 1
	}
	return pred
}

// EstimateCost is the admission currency: prefill cost is the known
// prompt length, decode cost is the predicted bucket. Budgets,
// backlogs, and brownout thresholds are all denominated in these
// estimated tokens.
func (p *Predictor) EstimateCost(class Class, promptLen, maxNew int) int {
	if promptLen < 0 {
		promptLen = 0
	}
	return promptLen + p.PredictDecode(class, promptLen, maxNew)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed
// deterministic hash for seeded prediction.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Brownout is the overload state machine shared by the simulator and
// the daemon, observed by Admit on both. It
// watches the admitted-cost backlog as a fraction of the token budget:
// when the fraction stays at or above High for Sustain consecutive
// arrival observations, the level rises by one — and every class whose
// index is below the level is rejected at admission (with an honest
// Retry-After on the live path) before queues saturate. The level
// drops straight to zero as soon as the backlog falls to Low or below,
// observed when admitted cost settles; brownout is reversible by
// construction. Observations are counted, not timed, so the machine is
// deterministic in simulation and trivially testable live.
type Brownout struct {
	// Budget is the token budget the backlog fraction is measured
	// against. Zero disables the machine entirely (Observe always
	// returns level 0).
	Budget int
	// High and Low are the enter and exit backlog fractions
	// (0 < Low < High <= 1).
	High, Low float64
	// Sustain is how many consecutive over-High arrival observations
	// escalate the level by one; transient spikes do not brown out.
	Sustain int

	level   int
	streak  int
	entries int64
	exits   int64
}

// Defaulted fills zero fields with the documented defaults
// (High 0.8, Low 0.5, Sustain 8) and returns the receiver.
func (b *Brownout) Defaulted() *Brownout {
	if b.High == 0 {
		b.High = 0.8
	}
	if b.Low == 0 {
		b.Low = 0.5
	}
	if b.Sustain == 0 {
		b.Sustain = 8
	}
	return b
}

// Observe records one arrival-time backlog observation and returns the
// level to enforce against that arrival. The caller holds whatever lock
// guards its backlog; Brownout itself is not concurrency-safe.
func (b *Brownout) Observe(backlog int) int {
	if b.Budget <= 0 {
		return 0
	}
	if float64(backlog) >= b.High*float64(b.Budget) {
		b.streak++
		if b.streak >= b.Sustain && b.level < NumClasses-1 {
			b.level++
			b.entries++
			b.streak = 0
		}
	} else {
		b.streak = 0
	}
	return b.level
}

// Release records a settle-time backlog observation: when the backlog
// has drained to Low or below, brownout exits completely (straight to
// level 0 — a system healthy enough to exit is healthy enough to take
// all classes again).
func (b *Brownout) Release(backlog int) {
	if b.Budget <= 0 || b.level == 0 {
		return
	}
	if float64(backlog) <= b.Low*float64(b.Budget) {
		b.level = 0
		b.streak = 0
		b.exits++
	}
}

// Level is the current brownout level: classes with index < Level are
// rejected at admission.
func (b *Brownout) Level() int { return b.level }

// Entries and Exits count level escalations and full exits, for the
// transition counters /statz exposes.
func (b *Brownout) Entries() int64 { return b.entries }

// Exits counts full exits back to level 0.
func (b *Brownout) Exits() int64 { return b.exits }
