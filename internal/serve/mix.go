package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"helmsim/internal/core"
	"helmsim/internal/runcache"
	"helmsim/internal/stats"
	"helmsim/internal/units"
)

// ClassSpec describes one class's slice of a workload.
type ClassSpec struct {
	// Class tags every request this spec generates.
	Class Class
	// ArrivalRate is this class's Poisson rate in prompts per second.
	ArrivalRate float64
	// PromptLen is the prompt length in tokens for this class.
	PromptLen int
	// MaxNew caps generation; the engine decodes the full cap, so the
	// predictor's bucket (not MaxNew) is only the admission estimate.
	MaxNew int
	// SLO is the per-class end-to-end bound for attainment reporting
	// (0 disables for this class).
	SLO units.Duration
	// Deadline is the drop-dead bound: a request not started by
	// arrival+Deadline is shed at dispatch instead of served — work
	// whose deadline has passed is never begun. 0 means none.
	Deadline units.Duration
}

// MixConfig describes an online-serving simulation: arrivals pass the
// admission pipeline helmd runs live (Admit at arrival, Renege at
// dispatch, the same Brownout machine and Predictor) and are served in
// waves. It extends the paper's offline protocol to the serving regime
// its QoS discussion (§VII) targets: the throughput-optimal All-CPU
// placement serves big waves cheaply but makes every request wait for
// the wave. One class with no token budget is the count-only queueing
// model; more classes and a budget make admission cost-aware.
type MixConfig struct {
	// Run is the engine configuration; Run.Batch is the wave-size cap.
	Run core.RunConfig
	// Classes lists the workload slices; at most one spec per class.
	Classes []ClassSpec
	// Seed drives the predictor.
	Seed int64
	// MaxQueue bounds the waiting line across classes (0 = unbounded).
	MaxQueue int
	// MaxWait bounds queueing delay; waiting past it reneges at
	// dispatch (0 = unbounded patience).
	MaxWait units.Duration
	// TokenBudget caps the admitted-cost backlog in estimated tokens
	// (0 = unbounded; brownout disabled too, as it is budget-relative).
	TokenBudget int
	// BrownoutHigh, BrownoutLow, and BrownoutSustain tune the Brownout
	// machine (zero values take its documented defaults).
	BrownoutHigh, BrownoutLow float64
	BrownoutSustain           int
	// PageBudget caps the KV pages a wave holds at once, modeling the
	// paged cache (kvcache.Pool) under the wave dispatcher: each request
	// pins ceil((PromptLen+MaxNew)/pageTokens) pages for its service
	// time, so a wave takes head-of-line requests while both Run.Batch
	// and the page budget allow. A request too large for the whole
	// budget sheds at admission (ShedPagePressure). 0 means unbounded.
	PageBudget int
}

// pageTokens is the simulated page granularity: vLLM's, and helmd's
// default.
const pageTokens = 16

// MixMetrics aggregates a serving simulation. Per-class arrays are
// indexed by Class, like the ledger rows; latencies cover admitted
// requests only (zero where a class had none).
type MixMetrics struct {
	// Waves is the number of batch executions; MeanBatch their average
	// occupancy.
	Waves     int
	MeanBatch float64
	// BrownoutEntries and BrownoutExits count level escalations and
	// full recoveries over the run.
	BrownoutEntries, BrownoutExits int64
	// MaxBacklog is the peak admitted-cost backlog in estimated tokens.
	MaxBacklog int
	// Classes is the per-class conserved ledger.
	Classes [NumClasses]Ledger
	// MeanQueueDelay and P99QueueDelay describe time spent waiting to be
	// scheduled.
	MeanQueueDelay, P99QueueDelay [NumClasses]units.Duration
	// MeanE2E and P99E2E describe arrival-to-completion latency.
	MeanE2E, P99E2E [NumClasses]units.Duration
	// SLOAttainment is the fraction of admitted requests finishing
	// within the class's SLO (NaN when the class has no SLO or served
	// nothing). Shed requests are excluded: admission control trades
	// completeness for the latency of what it does serve, and the
	// attainment figure reports exactly that.
	SLOAttainment [NumClasses]float64
	// Utilization is the server's busy fraction over the serving window
	// — first arrival to last completion; the idle lead-in before the
	// first request says nothing about the server.
	Utilization float64
	// PromptsPerSec is admitted completions per second over the same
	// window. Note the unit: this is request throughput, not the
	// tokens-per-second Throughput of sched.Result.
	PromptsPerSec float64
}

// Conserved reports whether every class row conserves.
func (m *MixMetrics) Conserved() bool {
	for _, l := range m.Classes {
		if !l.Conserved() {
			return false
		}
	}
	return true
}

// SLOAttainmentString formats a class's attainment for reports: "n/a"
// when it is NaN, a percentage otherwise.
func (m *MixMetrics) SLOAttainmentString(c Class) string {
	if math.IsNaN(m.SLOAttainment[c]) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*m.SLOAttainment[c])
}

// Arrival is one simulated request reaching admission.
type Arrival struct {
	Class Class
	// At is the arrival time in seconds from the start of the run.
	At float64
}

// PoissonArrivals draws n arrivals of one class as a Poisson process of
// the given rate (prompts per second) from rand.NewSource(seed); none
// when n is not positive.
func PoissonArrivals(class Class, rate float64, n int, seed int64) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Arrival, max(n, 0))
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = Arrival{Class: class, At: t}
	}
	return out
}

// MixArrivals splits n arrivals across the specs in proportion to
// their rates (the rounding remainder goes to the last spec), draws
// each class's Poisson stream from its own seeded source — so adding a
// class never perturbs another's stream — and merges the streams in
// time order, ties broken by class.
func MixArrivals(specs []ClassSpec, n int, seed int64) []Arrival {
	totalRate := 0.0
	for _, cs := range specs {
		totalRate += cs.ArrivalRate
	}
	var out []Arrival
	assigned := 0
	for i, cs := range specs {
		k := int(math.Round(float64(n) * cs.ArrivalRate / totalRate))
		if i == len(specs)-1 {
			k = n - assigned
		}
		assigned += k
		out = append(out, PoissonArrivals(cs.Class, cs.ArrivalRate, k, seed+7919*int64(cs.Class)+1)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// mixReq is one simulated arrival, priced.
type mixReq struct {
	class    Class
	arrival  float64
	est      int // admission estimate: prompt + predicted decode
	actual   int // tokens actually processed: prompt + full MaxNew
	pages    int // KV pages the full context pins
	slo      float64
	deadline units.Duration
}

// SimulateMix runs the serving simulation over arrivals (in time order,
// every class with a spec). Each arrival passes Admit; a request
// leaving the line passes Renege; the head of the line is served FIFO
// across classes in waves — priority acts at admission (who gets in),
// not dispatch (no overtaking), the same no-starvation discipline as
// the live batcher.
//
// Wave costs come from the engine through the shared run cache (one
// solve per batch size, process-wide), scaled by the wave's token
// volume relative to the canonical homogeneous wave — the engine is
// memory-bound, so wave time is near-linear in tokens processed. The
// queueing dynamics therefore sit on exactly the cost model of the
// paper's offline numbers, and concurrent simulations are safe.
func SimulateMix(mc MixConfig, arrivals []Arrival) (*MixMetrics, error) {
	if mc.Run.Batch <= 0 {
		return nil, fmt.Errorf("serve: non-positive wave cap %d", mc.Run.Batch)
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("serve: no arrivals")
	}
	if len(mc.Classes) == 0 {
		return nil, fmt.Errorf("serve: no class specs")
	}
	if mc.MaxQueue < 0 || mc.TokenBudget < 0 || mc.PageBudget < 0 {
		return nil, fmt.Errorf("serve: negative bound (queue %d, budget %d, pages %d)", mc.MaxQueue, mc.TokenBudget, mc.PageBudget)
	}
	if mc.MaxWait < 0 {
		return nil, fmt.Errorf("serve: negative wait bound %v", mc.MaxWait)
	}
	var specs [NumClasses]*ClassSpec
	for i := range mc.Classes {
		cs := &mc.Classes[i]
		if !cs.Class.Valid() {
			return nil, fmt.Errorf("serve: invalid class %d", int(cs.Class))
		}
		if specs[cs.Class] != nil {
			return nil, fmt.Errorf("serve: duplicate spec for class %s", cs.Class)
		}
		specs[cs.Class] = cs
		if cs.ArrivalRate <= 0 {
			return nil, fmt.Errorf("serve: non-positive arrival rate %v for class %s", cs.ArrivalRate, cs.Class)
		}
		if cs.PromptLen <= 0 || cs.MaxNew <= 0 {
			return nil, fmt.Errorf("serve: non-positive prompt/gen length for class %s", cs.Class)
		}
		if cs.SLO < 0 || cs.Deadline < 0 {
			return nil, fmt.Errorf("serve: negative SLO/deadline for class %s", cs.Class)
		}
	}
	pred := NewPredictor(mc.Seed)
	reqs := make([]mixReq, len(arrivals))
	prev := 0.0
	for i, a := range arrivals {
		if !a.Class.Valid() || specs[a.Class] == nil {
			return nil, fmt.Errorf("serve: arrival %d of class %s has no spec", i, a.Class)
		}
		if !(a.At >= prev) || math.IsInf(a.At, 1) {
			return nil, fmt.Errorf("serve: arrival %d at %v s is out of order or not finite", i, a.At)
		}
		prev = a.At
		cs := specs[a.Class]
		context := cs.PromptLen + cs.MaxNew
		reqs[i] = mixReq{
			class:    a.Class,
			arrival:  a.At,
			est:      pred.EstimateCost(cs.Class, cs.PromptLen, cs.MaxNew),
			actual:   context,
			pages:    (context + pageTokens - 1) / pageTokens,
			slo:      cs.SLO.Seconds(),
			deadline: cs.Deadline,
		}
	}

	rcCanon := mc.Run.Canonical()
	nominalPerReq := rcCanon.PromptLen + rcCanon.GenLen
	cost := func(batch, tokens int) (float64, error) {
		rc := mc.Run
		rc.Batch = batch
		res, err := runcache.Run(rc)
		if err != nil {
			return 0, err
		}
		return res.TotalTime.Seconds() * (float64(tokens) / float64(batch*nominalPerReq)), nil
	}

	bo := (&Brownout{
		Budget:  mc.TokenBudget,
		High:    mc.BrownoutHigh,
		Low:     mc.BrownoutLow,
		Sustain: mc.BrownoutSustain,
	}).Defaulted()

	m := &MixMetrics{}
	var queueDelays, e2es [NumClasses][]float64
	var met [NumClasses]int
	backlog := 0
	busy := 0.0
	clock := 0.0
	queue := make([]int, 0, mc.Run.Batch) // admitted, waiting arrivals
	next := 0                             // next unprocessed arrival
	for next < len(reqs) || len(queue) > 0 {
		if len(queue) == 0 && clock < reqs[next].arrival {
			clock = reqs[next].arrival // idle until work exists
		}
		// Admit everything that has arrived by now. The line only grows
		// between waves, so processing arrivals in order shows each one
		// exactly the state it arrived to.
		for next < len(reqs) && reqs[next].arrival <= clock {
			r := reqs[next]
			row := &m.Classes[r.class]
			row.Arrivals++
			b := Admit(AdmitState{
				PagesFit:    mc.PageBudget == 0 || r.pages <= mc.PageBudget,
				Backlog:     backlog,
				Waiting:     len(queue),
				TokenBudget: mc.TokenBudget,
				MaxQueue:    mc.MaxQueue,
				Brownout:    bo,
			}, r.class, r.est)
			if b == Admitted {
				queue = append(queue, next)
				backlog += r.est
				m.MaxBacklog = max(m.MaxBacklog, backlog)
			} else {
				row.Buckets[b]++
			}
			next++
		}
		// Reneges as the wave is assembled.
		kept := queue[:0]
		for _, i := range queue {
			r := reqs[i]
			if b := Renege(false, units.Duration(clock-r.arrival), r.deadline, mc.MaxWait); b != Admitted {
				m.Classes[r.class].Buckets[b]++
				backlog -= r.est
			} else {
				kept = append(kept, i)
			}
		}
		queue = kept
		if len(queue) == 0 {
			bo.Release(backlog)
			continue // everything waiting reneged; idle to the next arrival
		}
		// Serve the head of the line while the wave cap and the page
		// budget allow; every admitted request fits an empty wave alone.
		batch, tokens, pages := 0, 0, 0
		for _, i := range queue {
			r := reqs[i]
			if batch == mc.Run.Batch || (mc.PageBudget > 0 && pages+r.pages > mc.PageBudget) {
				break
			}
			batch++
			tokens += r.actual
			pages += r.pages
		}
		c, err := cost(batch, tokens)
		if err != nil {
			return nil, err
		}
		start := clock
		clock += c
		busy += c
		for _, i := range queue[:batch] {
			r := reqs[i]
			m.Classes[r.class].Buckets[Admitted]++
			backlog -= r.est
			e2e := clock - r.arrival
			queueDelays[r.class] = append(queueDelays[r.class], start-r.arrival)
			e2es[r.class] = append(e2es[r.class], e2e)
			if r.slo > 0 && e2e <= r.slo {
				met[r.class]++
			}
		}
		bo.Release(backlog)
		queue = queue[batch:]
		m.Waves++
		m.MeanBatch += float64(batch)
	}
	if m.Waves > 0 {
		m.MeanBatch /= float64(m.Waves)
	}
	m.BrownoutEntries = bo.Entries()
	m.BrownoutExits = bo.Exits()
	admitted := 0
	for c := range NumClasses {
		m.SLOAttainment[c] = math.NaN()
		n := len(e2es[c])
		if n == 0 {
			continue
		}
		admitted += n
		m.MeanQueueDelay[c] = units.Duration(stats.Mean(queueDelays[c]))
		m.P99QueueDelay[c] = units.Duration(stats.Percentile(queueDelays[c], 99))
		m.MeanE2E[c] = units.Duration(stats.Mean(e2es[c]))
		m.P99E2E[c] = units.Duration(stats.Percentile(e2es[c], 99))
		if specs[c].SLO > 0 {
			m.SLOAttainment[c] = float64(met[c]) / float64(n)
		}
	}
	// Rates are over the first-arrival-to-completion makespan: dividing
	// by the clock from t=0 would fold the idle interval before the first
	// arrival in, deflating both at low arrival rates.
	if makespan := clock - reqs[0].arrival; makespan > 0 {
		m.Utilization = busy / makespan
		m.PromptsPerSec = float64(admitted) / makespan
	}
	return m, nil
}
