package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/units"
)

func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"", ClassInteractive, true},
		{"interactive", ClassInteractive, true},
		{"rag", ClassRAG, true},
		{"batch", ClassBatch, true},
		{"Interactive", 0, false},
		{"bulk", 0, false},
	}
	for _, c := range cases {
		got, err := ParseClass(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseClass(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseClass(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// Round trip: every class parses back from its own name.
	for c := Class(0); c < NumClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
}

func TestPredictorDeterministicAndBounded(t *testing.T) {
	p := NewPredictor(42)
	q := NewPredictor(42)
	for c := Class(0); c < NumClasses; c++ {
		for _, plen := range []int{1, 8, 64, 512, 4096} {
			for _, maxNew := range []int{1, 4, 64, 1024} {
				a := p.PredictDecode(c, plen, maxNew)
				if b := q.PredictDecode(c, plen, maxNew); a != b {
					t.Fatalf("same seed diverges: %d vs %d (class %v, plen %d)", a, b, c, plen)
				}
				if a < 1 || a > maxNew {
					t.Fatalf("prediction %d out of [1,%d] (class %v, plen %d)", a, maxNew, c, plen)
				}
				if est := p.EstimateCost(c, plen, maxNew); est != plen+a {
					t.Fatalf("EstimateCost %d != prompt %d + prediction %d", est, plen, a)
				}
			}
		}
	}
	// Class priors order the unclamped predictions: batch requests are
	// expected to decode at least as long as interactive ones.
	const big = 1 << 20
	for _, plen := range []int{3, 17, 200} {
		i := p.PredictDecode(ClassInteractive, plen, big)
		b := p.PredictDecode(ClassBatch, plen, big)
		if b < i {
			t.Errorf("batch prediction %d < interactive %d at plen %d", b, i, plen)
		}
	}
}

func TestBrownoutStateMachine(t *testing.T) {
	bo := (&Brownout{Budget: 100, High: 0.8, Low: 0.5, Sustain: 3}).Defaulted()
	// Below the high-water mark: never engages.
	for i := 0; i < 10; i++ {
		if lvl := bo.Observe(79); lvl != 0 {
			t.Fatalf("engaged below high water: level %d", lvl)
		}
	}
	// Two over-high observations then a dip: streak resets.
	bo.Observe(90)
	bo.Observe(90)
	bo.Observe(10)
	if bo.Observe(90) != 0 || bo.Observe(90) != 0 {
		t.Fatal("streak survived a below-high observation")
	}
	// Third consecutive: level 1. The arrival that trips the level is
	// already enforced against it.
	if lvl := bo.Observe(90); lvl != 1 {
		t.Fatalf("sustained pressure did not engage: level %d", lvl)
	}
	if bo.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", bo.Entries())
	}
	// Sustained further: escalates to NumClasses-1 and no higher (the
	// top class is never shed by brownout).
	for i := 0; i < 20; i++ {
		bo.Observe(95)
	}
	if bo.Level() != NumClasses-1 {
		t.Fatalf("level = %d, want cap %d", bo.Level(), NumClasses-1)
	}
	// Release above low water: stays engaged.
	bo.Release(51)
	if bo.Level() == 0 {
		t.Fatal("exited above low water")
	}
	// Release at low water: exits straight to 0, reversibly.
	bo.Release(50)
	if bo.Level() != 0 || bo.Exits() != 1 {
		t.Fatalf("level %d exits %d after drain, want 0 and 1", bo.Level(), bo.Exits())
	}
	// Disabled machine (no budget) never engages.
	off := (&Brownout{}).Defaulted()
	for i := 0; i < 100; i++ {
		if off.Observe(1<<30) != 0 {
			t.Fatal("budget-less brownout engaged")
		}
	}
}

// TestClassLedgerConserved pins the row every layer reports per class:
// named by ClassRows, conserved by Ledger.Conserved, and carried on the
// wire under the bucket names.
func TestClassLedgerConserved(t *testing.T) {
	var ledgers [NumClasses]Ledger
	for c, row := range ClassRows(ledgers) {
		if row.Class != Class(c).String() || !row.Ledger.Conserved() {
			t.Fatalf("zero row %d must be named and conserve: %+v", c, row)
		}
	}
	l := &ledgers[ClassBatch]
	l.Arrivals = 10
	l.Buckets[Admitted] = 4
	for _, b := range []Bucket{ShedQueueFull, ShedMaxWait, ShedDeadline, ShedBrownout, ShedCostBudget, ShedPagePressure} {
		l.Buckets[b] = 1
	}
	if !l.Conserved() {
		t.Fatalf("full row must conserve: %+v", *l)
	}
	js, err := json.Marshal(ClassRows(ledgers))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"class":"batch"`, `"arrivals":10`, `"admitted":4`, `"shed_page_pressure":1`, `"shed_no_healthy_backend":0`} {
		if !strings.Contains(string(js), key) {
			t.Errorf("wire form lacks %s: %s", key, js)
		}
	}
	var back []ClassRow
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if back[ClassBatch].Ledger != *l {
		t.Fatalf("round trip changed the row: %+v vs %+v", back[ClassBatch].Ledger, *l)
	}
	l.Buckets[ShedBrownout]++
	if l.Conserved() {
		t.Fatal("over-counted row conserved")
	}
	// A negative bucket never conserves, even when the sums match.
	l.Buckets[ShedBrownout] = -1
	l.Arrivals = 8
	if l.Conserved() {
		t.Fatal("negative bucket conserved")
	}
}

func mixCfg(batchCap int) MixConfig {
	return MixConfig{
		Run: core.RunConfig{
			Model: model.OPT175B(), Memory: core.MemNVDRAM,
			Policy: placement.AllCPU{}, Batch: batchCap, Compress: true,
		},
		Classes: []ClassSpec{
			{Class: ClassInteractive, ArrivalRate: 1.0, PromptLen: 64, MaxNew: 16, SLO: 600},
			{Class: ClassRAG, ArrivalRate: 0.5, PromptLen: 512, MaxNew: 64},
			{Class: ClassBatch, ArrivalRate: 0.5, PromptLen: 256, MaxNew: 128},
		},
		Seed: 1,
	}
}

// simulateMix runs mc over n arrivals split across its classes.
func simulateMix(mc MixConfig, n int) (*MixMetrics, error) {
	return SimulateMix(mc, MixArrivals(mc.Classes, n, mc.Seed))
}

func TestSimulateMixValidation(t *testing.T) {
	bad := mixCfg(8)
	bad.Run.Batch = 0
	if _, err := simulateMix(bad, 120); err == nil {
		t.Error("zero wave cap accepted")
	}
	bad = mixCfg(8)
	bad.Classes = nil
	if _, err := simulateMix(bad, 120); err == nil {
		t.Error("empty class list accepted")
	}
	bad = mixCfg(8)
	bad.Classes = append(bad.Classes, bad.Classes[0])
	if _, err := simulateMix(bad, 120); err == nil {
		t.Error("duplicate class accepted")
	}
	bad = mixCfg(8)
	bad.Classes[0].ArrivalRate = 0
	if _, err := simulateMix(bad, 120); err == nil {
		t.Error("zero class rate accepted")
	}
	bad = mixCfg(8)
	bad.TokenBudget = -1
	if _, err := simulateMix(bad, 120); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestSimulateMixUnconstrainedServesEverything(t *testing.T) {
	m, err := simulateMix(mixCfg(16), 120)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Conserved() {
		t.Fatalf("ledger not conserved: %+v", m.Classes)
	}
	var arrivals, admitted int64
	for _, row := range m.Classes {
		arrivals += row.Arrivals
		admitted += row.Buckets[Admitted]
	}
	if arrivals != 120 || admitted != 120 {
		t.Fatalf("unconstrained run shed work: arrivals %d admitted %d", arrivals, admitted)
	}
	if m.BrownoutEntries != 0 {
		t.Fatalf("brownout engaged with no budget: %d entries", m.BrownoutEntries)
	}
	if m.Waves <= 0 || m.MeanBatch < 1 || m.MeanBatch > 16 {
		t.Fatalf("wave accounting wrong: %+v", m)
	}
}

// TestSimulateMixBrownoutShedsLowestFirst overloads a budgeted mix and
// checks the documented shedding order: brownout and budget pressure
// land on batch before rag, and interactive is admitted untouched.
func TestSimulateMixBrownoutShedsLowestFirst(t *testing.T) {
	mc := mixCfg(4)
	// Heavy low-class pressure against a small budget.
	mc.Classes[1].ArrivalRate = 4
	mc.Classes[2].ArrivalRate = 4
	mc.TokenBudget = 4096
	mc.BrownoutHigh = 0.6
	mc.BrownoutLow = 0.3
	mc.BrownoutSustain = 2
	m, err := simulateMix(mc, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Conserved() {
		t.Fatalf("ledger not conserved: %+v", m.Classes)
	}
	inter := m.Classes[ClassInteractive]
	if inter.Buckets[ShedBrownout] != 0 {
		t.Fatalf("interactive shed by brownout: %+v", inter)
	}
	if m.BrownoutEntries == 0 {
		t.Fatal("overloaded budgeted run never browned out")
	}
	if m.BrownoutExits == 0 {
		t.Fatal("brownout never exited after the load drained")
	}
	batch := m.Classes[ClassBatch].Buckets[ShedBrownout]
	rag := m.Classes[ClassRAG].Buckets[ShedBrownout]
	if batch == 0 {
		t.Fatalf("lowest class not shed under brownout: %+v", m.Classes[ClassBatch])
	}
	if rag > 0 && batch == 0 {
		t.Fatal("rag shed before batch: order violated")
	}
	if m.MaxBacklog > mc.TokenBudget {
		t.Fatalf("backlog %d exceeded budget %d", m.MaxBacklog, mc.TokenBudget)
	}
}

// TestSimulateMixDeadlineShedding checks that work whose deadline has
// passed is never started: with a deadline tighter than the service
// backlog, late requests land in ShedDeadline, not in Admitted.
func TestSimulateMixDeadlineShedding(t *testing.T) {
	mc := mixCfg(2)
	mc.Classes = []ClassSpec{
		{Class: ClassInteractive, ArrivalRate: 6, PromptLen: 64, MaxNew: 32, Deadline: 30},
		{Class: ClassBatch, ArrivalRate: 6, PromptLen: 512, MaxNew: 128},
	}
	m, err := simulateMix(mc, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Conserved() {
		t.Fatalf("ledger not conserved: %+v", m.Classes)
	}
	inter := m.Classes[ClassInteractive]
	if inter.Buckets[ShedDeadline] == 0 {
		t.Fatalf("tight deadline under overload shed nothing: %+v", inter)
	}
	if m.Classes[ClassBatch].Buckets[ShedDeadline] != 0 {
		t.Fatalf("deadline-less class shed on deadline: %+v", m.Classes[ClassBatch])
	}
}

func TestSimulateMixDeterministic(t *testing.T) {
	mc := mixCfg(4)
	mc.TokenBudget = 8192
	mc.MaxQueue = 32
	mc.MaxWait = 400
	a, err := simulateMix(mc, 120)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulateMix(mc, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMetrics(a, b) {
		t.Fatalf("identical runs diverge:\n%+v\n%+v", a, b)
	}
}

// FuzzClassLedgerConservation drives the mixed-class simulator across
// random per-class load shapes, budgets, and brownout tunings and
// asserts the invariant helmd's /statz class rows are held to as well:
// every arrival of every class is admitted or lands in exactly one
// per-class shed bucket, the global ledger is the rows' sum, and every
// reported metric is finite. It is FuzzQueueConservation lifted to
// three classes.
func FuzzClassLedgerConservation(f *testing.F) {
	f.Add(int64(1), 1.0, 0.5, 0.5, 100, 4, 0, 0.0, 0, 0.8, 0.5, 2, 0.0)
	f.Add(int64(7), 4.0, 2.0, 3.0, 200, 2, 16, 60.0, 4096, 0.6, 0.3, 3, 90.0)
	f.Add(int64(-9), 0.3, 6.0, 0.2, 60, 8, 3, 1.5, 512, 0.9, 0.1, 1, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, rI, rR, rB float64, n, batch, maxQueue int,
		maxWait float64, budget int, high, low float64, sustain int, deadline float64) {
		for _, v := range []float64{rI, rR, rB, maxWait, high, low, deadline} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		mc := mixCfg(1 + abs(batch)%6)
		mc.Seed = seed
		mc.MaxQueue = abs(maxQueue) % 24
		mc.MaxWait = units.Duration(math.Mod(math.Abs(maxWait), 300))
		mc.TokenBudget = abs(budget) % 10000
		mc.BrownoutHigh = 0.05 + math.Mod(math.Abs(high), 0.95)
		mc.BrownoutLow = mc.BrownoutHigh * (0.1 + math.Mod(math.Abs(low), 0.8))
		mc.BrownoutSustain = 1 + abs(sustain)%8
		mc.Classes[0].ArrivalRate = 0.05 + math.Mod(math.Abs(rI), 12)
		mc.Classes[1].ArrivalRate = 0.05 + math.Mod(math.Abs(rR), 12)
		mc.Classes[2].ArrivalRate = 0.05 + math.Mod(math.Abs(rB), 12)
		mc.Classes[0].Deadline = units.Duration(math.Mod(math.Abs(deadline), 500))
		prompts := 1 + abs(n)%150
		m, err := simulateMix(mc, prompts)
		if err != nil {
			t.Fatalf("valid config rejected: %v (%+v)", err, mc)
		}
		conservedAgainst(t, m, prompts)
		if m.MaxBacklog < 0 || (mc.TokenBudget > 0 && m.MaxBacklog > mc.TokenBudget) {
			t.Fatalf("backlog %d outside [0,%d]", m.MaxBacklog, mc.TokenBudget)
		}
		finite := func(name string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s = %v not finite and non-negative (cfg %+v)", name, v, mc)
			}
		}
		finite("MeanBatch", m.MeanBatch)
		finite("Utilization", m.Utilization)
		for c := range NumClasses {
			finite("MeanQueueDelay", m.MeanQueueDelay[c].Seconds())
			finite("MeanE2E", m.MeanE2E[c].Seconds())
			finite("P99E2E", m.P99E2E[c].Seconds())
		}
	})
}
