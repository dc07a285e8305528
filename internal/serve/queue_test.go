package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/units"
)

// qc is the one class of the count-only queueing model.
const qc = ClassInteractive

// queueCfg is the count-only queueing model: one class at the paper's
// 128-in / 21-out lengths arriving at rate, served in waves of up to
// batchCap.
func queueCfg(batchCap int, rate float64) MixConfig {
	return MixConfig{
		Run: core.RunConfig{
			Model: model.OPT175B(), Memory: core.MemNVDRAM,
			Policy: placement.AllCPU{}, Batch: batchCap, Compress: true,
		},
		Classes: []ClassSpec{{Class: qc, ArrivalRate: rate, PromptLen: 128, MaxNew: 21}},
		Seed:    1,
	}
}

// simulateQueue runs mc over n Poisson arrivals of its one class drawn
// from mc.Seed.
func simulateQueue(mc MixConfig, n int) (*MixMetrics, error) {
	cs := mc.Classes[0]
	return SimulateMix(mc, PoissonArrivals(cs.Class, cs.ArrivalRate, n, mc.Seed))
}

func TestSimulateQueueValidation(t *testing.T) {
	bad := queueCfg(8, 1)
	bad.Run.Batch = 0
	if _, err := simulateQueue(bad, 120); err == nil {
		t.Errorf("zero wave cap accepted")
	}
	bad = queueCfg(8, 0)
	if _, err := simulateQueue(bad, 120); err == nil {
		t.Errorf("zero rate accepted")
	}
	if _, err := simulateQueue(queueCfg(8, 1), 0); err == nil {
		t.Errorf("zero prompts accepted")
	}
	// An arrival list that runs backwards, or names a class without a
	// spec, is rejected rather than simulated.
	if _, err := SimulateMix(queueCfg(8, 1), []Arrival{{qc, 2}, {qc, 1}}); err == nil {
		t.Errorf("out-of-order arrivals accepted")
	}
	if _, err := SimulateMix(queueCfg(8, 1), []Arrival{{ClassBatch, 1}}); err == nil {
		t.Errorf("arrival of a class without a spec accepted")
	}
}

func TestSimulateQueueBasics(t *testing.T) {
	m, err := simulateQueue(queueCfg(44, 1.0), 120)
	if err != nil {
		t.Fatal(err)
	}
	if m.Waves <= 0 || m.MeanBatch < 1 || m.MeanBatch > 44 {
		t.Fatalf("wave accounting wrong: %+v", m)
	}
	if m.MeanQueueDelay[qc] < 0 || m.P99QueueDelay[qc] < m.MeanQueueDelay[qc] {
		t.Errorf("queue delays inconsistent: mean %v p99 %v", m.MeanQueueDelay[qc], m.P99QueueDelay[qc])
	}
	if m.MeanE2E[qc] <= m.MeanQueueDelay[qc] {
		t.Errorf("E2E %v must exceed queue delay %v by the service time", m.MeanE2E[qc], m.MeanQueueDelay[qc])
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("utilization = %v", m.Utilization)
	}
	if !math.IsNaN(m.SLOAttainment[qc]) {
		t.Errorf("attainment without SLO should be NaN")
	}
}

// Under heavier load the server forms bigger waves — the batching
// amplification behind All-CPU's throughput story.
func TestLoadGrowsWaves(t *testing.T) {
	light, err := simulateQueue(queueCfg(44, 0.2), 120)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := simulateQueue(queueCfg(44, 5.0), 120)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.MeanBatch <= light.MeanBatch {
		t.Errorf("heavier load should batch more: %.1f <= %.1f", heavy.MeanBatch, light.MeanBatch)
	}
	if heavy.PromptsPerSec <= light.PromptsPerSec {
		t.Errorf("heavier load should complete more per second: %v <= %v", heavy.PromptsPerSec, light.PromptsPerSec)
	}
}

// A larger wave cap absorbs overload: with the same arrivals, capping waves
// at 8 (the baseline's GPU budget) queues far longer than capping at 44
// (All-CPU) — the paper's §V-C in queueing terms.
func TestWaveCapControlsQueueing(t *testing.T) {
	small, err := simulateQueue(queueCfg(8, 2.0), 120)
	if err != nil {
		t.Fatal(err)
	}
	large, err := simulateQueue(queueCfg(44, 2.0), 120)
	if err != nil {
		t.Fatal(err)
	}
	if large.MeanE2E[qc] >= small.MeanE2E[qc] {
		t.Errorf("wave cap 44 should cut E2E latency under load: %v >= %v", large.MeanE2E[qc], small.MeanE2E[qc])
	}
}

func TestSLOAttainment(t *testing.T) {
	mc := queueCfg(44, 1.0)
	mc.Classes[0].SLO = units.Duration(1e6) // everything meets a huge bound
	m, err := simulateQueue(mc, 120)
	if err != nil {
		t.Fatal(err)
	}
	if m.SLOAttainment[qc] != 1 {
		t.Errorf("attainment = %v, want 1", m.SLOAttainment[qc])
	}
	mc.Classes[0].SLO = units.Duration(1e-9) // nothing meets a tiny bound
	m, err = simulateQueue(mc, 120)
	if err != nil {
		t.Fatal(err)
	}
	if m.SLOAttainment[qc] != 0 {
		t.Errorf("attainment = %v, want 0", m.SLOAttainment[qc])
	}
}

func TestAdmissionValidation(t *testing.T) {
	bad := queueCfg(8, 1)
	bad.MaxQueue = -1
	if _, err := simulateQueue(bad, 120); err == nil {
		t.Errorf("negative queue bound accepted")
	}
	bad = queueCfg(8, 1)
	bad.MaxWait = units.Duration(-1)
	if _, err := simulateQueue(bad, 120); err == nil {
		t.Errorf("negative wait bound accepted")
	}
}

// With both bounds off, the admission-control path must be invisible:
// everything is admitted, nothing shed.
func TestAdmissionOffAdmitsEverything(t *testing.T) {
	m, err := simulateQueue(queueCfg(8, 2.0), 120)
	if err != nil {
		t.Fatal(err)
	}
	if row := m.Classes[qc]; row.Arrivals != 120 || row.Buckets[Admitted] != 120 {
		t.Errorf("unbounded queue shed work: %+v", row)
	}
}

// A bounded queue sheds under overload, and every arrival is accounted
// for: admitted + shed == arrivals. Shedding must also cut the latency
// of what is served — that is its entire point.
func TestMaxQueueShedsAndCutsLatency(t *testing.T) {
	open, err := simulateQueue(queueCfg(4, 5.0), 120)
	if err != nil {
		t.Fatal(err)
	}
	mc := queueCfg(4, 5.0)
	mc.MaxQueue = 6
	bounded, err := simulateQueue(mc, 120)
	if err != nil {
		t.Fatal(err)
	}
	row := bounded.Classes[qc]
	if row.Buckets[ShedQueueFull] == 0 {
		t.Fatalf("overloaded bounded queue shed nothing: %+v", row)
	}
	if !row.Conserved() || row.Arrivals != 120 {
		t.Errorf("accounting broken: %+v", row)
	}
	if bounded.P99E2E[qc] >= open.P99E2E[qc] {
		t.Errorf("shedding should cut served P99: %v >= %v", bounded.P99E2E[qc], open.P99E2E[qc])
	}
}

// Impatient requests renege instead of being served hopelessly late, and
// every survivor's queueing delay respects the bound.
func TestMaxWaitReneges(t *testing.T) {
	mc := queueCfg(4, 5.0)
	mc.MaxWait = units.Duration(30)
	m, err := simulateQueue(mc, 120)
	if err != nil {
		t.Fatal(err)
	}
	row := m.Classes[qc]
	if row.Buckets[ShedMaxWait] == 0 {
		t.Fatalf("overload with 30s patience reneged nothing: %+v", row)
	}
	if !row.Conserved() || row.Arrivals != 120 {
		t.Errorf("accounting broken: %+v", row)
	}
	if m.MeanQueueDelay[qc] > mc.MaxWait {
		t.Errorf("served mean queue delay %v exceeds the patience bound %v", m.MeanQueueDelay[qc], mc.MaxWait)
	}
}

func TestSLOAttainmentString(t *testing.T) {
	m := &MixMetrics{}
	m.SLOAttainment[qc] = math.NaN()
	if got := m.SLOAttainmentString(qc); got != "n/a" {
		t.Errorf("NaN attainment prints %q, want n/a", got)
	}
	m.SLOAttainment[qc] = 0.985
	if got := m.SLOAttainmentString(qc); got != "98.5%" {
		t.Errorf("attainment prints %q, want 98.5%%", got)
	}
}

// sameMetrics compares two runs field by field; the printed form
// treats the NaN attainment of absent classes as equal.
func sameMetrics(a, b *MixMetrics) bool { return fmt.Sprintf("%+v", *a) == fmt.Sprintf("%+v", *b) }

func TestQueueDeterminism(t *testing.T) {
	cfg := queueCfg(44, 1.0)
	cfg.Classes[0].SLO = units.Duration(60)
	a, err := simulateQueue(cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := simulateQueue(cfg, 120)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMetrics(a, b) {
			t.Fatalf("same seed diverged on rerun %d: %+v vs %+v", i, a, b)
		}
	}
}

// Concurrent simulations of the same configuration must agree with the
// sequential result — the wave costs now come from the shared run cache,
// so this exercises the singleflight path under the race detector.
func TestQueueDeterminismConcurrent(t *testing.T) {
	cfg := queueCfg(44, 1.0)
	cfg.Classes[0].SLO = units.Duration(60)
	want, err := simulateQueue(cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([]*MixMetrics, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = simulateQueue(cfg, 120)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !sameMetrics(got[i], want) {
			t.Errorf("goroutine %d diverged: %+v vs %+v", i, got[i], want)
		}
	}
}

// A page budget below the wave cap becomes the binding constraint on
// wave size — the fixed-reservation vs paged-allocation comparison in
// queueing terms — and a request bigger than the whole budget sheds at
// admission into its own conserved bucket.
func TestPageBudgetCapsWaves(t *testing.T) {
	// OPT-175B at the paper's 128/21: 149 tokens = 10 pages of 16.
	unbounded, err := simulateQueue(queueCfg(44, 5.0), 120)
	if err != nil {
		t.Fatal(err)
	}
	capped := queueCfg(44, 5.0)
	capped.PageBudget = 40 // 4 concurrent requests
	m, err := simulateQueue(capped, 120)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanBatch > 4 {
		t.Errorf("page budget 40 must cap waves at 4: mean %.1f", m.MeanBatch)
	}
	if m.MeanE2E[qc] <= unbounded.MeanE2E[qc] {
		t.Errorf("page-capped waves should queue longer: %v <= %v", m.MeanE2E[qc], unbounded.MeanE2E[qc])
	}
	if !m.Conserved() {
		t.Errorf("ledger not conserved: %+v", m.Classes)
	}
}

func TestPageBudgetShedsOversized(t *testing.T) {
	mc := queueCfg(44, 2.0)
	mc.PageBudget = 5 // 149-token context needs 10 pages: nothing fits
	m, err := simulateQueue(mc, 120)
	if err != nil {
		t.Fatal(err)
	}
	if row := m.Classes[qc]; row.Buckets[ShedPagePressure] != 120 || row.Buckets[Admitted] != 0 {
		t.Fatalf("all arrivals must shed on page pressure: %+v", row)
	}
	if !m.Conserved() {
		t.Errorf("ledger not conserved: %+v", m.Classes)
	}
	bad := queueCfg(8, 1)
	bad.PageBudget = -1
	if _, err := simulateQueue(bad, 120); err == nil {
		t.Errorf("negative page budget accepted")
	}
}
