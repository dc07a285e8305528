package serve

import (
	"math"
	"testing"

	"helmsim/internal/units"
)

func TestConservedPredicate(t *testing.T) {
	row := func(arrivals int64, counts map[Bucket]int64) Ledger {
		l := Ledger{Arrivals: arrivals}
		for b, n := range counts {
			l.Buckets[b] = n
		}
		return l
	}
	cases := []struct {
		l    Ledger
		want bool
	}{
		{Ledger{}, true},
		{row(10, map[Bucket]int64{Admitted: 10}), true},
		{row(10, map[Bucket]int64{Admitted: 7, ShedQueueFull: 2, ShedMaxWait: 1}), true},
		{row(10, map[Bucket]int64{Admitted: 7, ShedQueueFull: 2, ShedMaxWait: 2}), false},
		{row(10, map[Bucket]int64{Admitted: 7, ShedQueueFull: 1, ShedMaxWait: 1}), false},
		{row(10, map[Bucket]int64{Admitted: -1, ShedDraining: 11}), false}, // negative buckets never conserve
		{row(-1, map[Bucket]int64{ShedDraining: -1}), false},
		{row(-3, map[Bucket]int64{Admitted: -3}), false}, // negativity is rejected even when the sums match
		{row(-1, nil), false},
		{row(0, map[Bucket]int64{Admitted: -1, ShedBrownout: 1}), false},
		{row(11, map[Bucket]int64{ShedNoHealthyBackend: 11}), true}, // any bucket counts
	}
	for _, c := range cases {
		if got := c.l.Conserved(); got != c.want {
			t.Errorf("%+v.Conserved() = %v, want %v", c.l, got, c.want)
		}
	}
}

// conservedAgainst checks a simulated ledger the way every layer's is
// checked: each class row conserves, and the global ledger — n
// arrivals — is their sum.
func conservedAgainst(t *testing.T, m *MixMetrics, n int) {
	t.Helper()
	var global Ledger
	for c, row := range m.Classes {
		if !row.Conserved() {
			t.Fatalf("class %s row not conserved: %+v", Class(c), row)
		}
		global.Add(row)
	}
	if !global.Conserved() || global.Arrivals != int64(n) {
		t.Fatalf("global ledger %+v does not conserve %d arrivals", global, n)
	}
}

// FuzzQueueConservation drives the one-class (count-only) simulator
// across random load shapes, queue bounds and page budgets and asserts
// the invariant the live daemon's /statz ledger is held to as well:
// every arrival is either admitted or lands in exactly one shed bucket,
// and every reported metric is finite. The clamps keep each case within
// the cost model's valid domain (and the wave cap small, so the
// run-cache solve set stays tiny); they do not steer the queueing
// dynamics.
func FuzzQueueConservation(f *testing.F) {
	f.Add(int64(1), 1.0, 50, 4, 0, 0.0, 0.0, 0)
	f.Add(int64(7), 5.0, 120, 6, 6, 30.0, 60.0, 40)
	f.Add(int64(42), 0.3, 30, 2, 1, 0.5, 1.0, 5)
	f.Add(int64(-9), 12.0, 200, 8, 3, 2.0, 0.0, 25)
	f.Fuzz(func(t *testing.T, seed int64, rate float64, n, batch, maxQueue int, maxWait, slo float64, pageBudget int) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) || math.IsNaN(maxWait) || math.IsInf(maxWait, 0) ||
			math.IsNaN(slo) || math.IsInf(slo, 0) {
			t.Skip()
		}
		mc := queueCfg(1+abs(batch)%8, 0.05+math.Mod(math.Abs(rate), 20))
		mc.Seed = seed
		mc.MaxQueue = abs(maxQueue) % 12
		mc.MaxWait = units.Duration(math.Mod(math.Abs(maxWait), 120))
		mc.Classes[0].SLO = units.Duration(math.Mod(math.Abs(slo), 300))
		mc.PageBudget = abs(pageBudget) % 64 // 0 unbounded, under 10 sheds all, else caps waves
		prompts := 1 + abs(n)%200
		m, err := simulateQueue(mc, prompts)
		if err != nil {
			t.Fatalf("valid config rejected: %v (%+v)", err, mc)
		}
		conservedAgainst(t, m, prompts)
		finite := func(name string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s = %v not finite and non-negative (cfg %+v, metrics %+v)", name, v, mc, m)
			}
		}
		finite("MeanBatch", m.MeanBatch)
		finite("MeanQueueDelay", m.MeanQueueDelay[qc].Seconds())
		finite("P99QueueDelay", m.P99QueueDelay[qc].Seconds())
		finite("MeanE2E", m.MeanE2E[qc].Seconds())
		finite("P99E2E", m.P99E2E[qc].Seconds())
		finite("Utilization", m.Utilization)
		finite("PromptsPerSec", m.PromptsPerSec)
		// SLOAttainment is NaN by contract when no SLO is set; otherwise a
		// fraction.
		if mc.Classes[0].SLO > 0 && m.Classes[qc].Buckets[Admitted] > 0 {
			if a := m.SLOAttainment[qc]; math.IsNaN(a) || a < 0 || a > 1 {
				t.Fatalf("SLOAttainment = %v outside [0,1]", a)
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		if v == math.MinInt {
			return 0
		}
		return -v
	}
	return v
}
