package autotune

import (
	"testing"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/units"
)

func req175() core.RunConfig {
	return core.RunConfig{Model: model.OPT175B(), Memory: core.MemNVDRAM, Batch: 1, Compress: true}
}

func TestBalanceRespectsBudget(t *testing.T) {
	budget := 20 * units.GB
	pol, err := Balance(req175(), budget)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := placement.PlaceModel(pol, model.OPT175B(), req175().Quantizer())
	if err != nil {
		t.Fatal(err)
	}
	used := mp.TotalOn(placement.TierGPU)
	if used > budget {
		t.Errorf("GPU bytes %v exceed budget %v", used, budget)
	}
	if used < budget/4 {
		t.Errorf("budget barely used: %v of %v", used, budget)
	}
	// Nothing goes to disk.
	if d := mp.TotalOn(placement.TierDisk); d != 0 {
		t.Errorf("balance placed %v on disk", d)
	}
}

func TestBalanceZeroBudgetIsAllCPU(t *testing.T) {
	pol, err := Balance(req175(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := placement.PlaceModel(pol, model.OPT175B(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := mp.TotalOn(placement.TierGPU); g != 0 {
		t.Errorf("zero budget placed %v on GPU", g)
	}
}

func TestBalanceRejectsNegativeBudget(t *testing.T) {
	if _, err := Balance(req175(), -1); err == nil {
		t.Errorf("negative budget accepted")
	}
}

// The generated placement must beat the FlexGen baseline on latency — it
// is a generalization of HeLM's balancing idea.
func TestBalanceBeatsBaselineLatency(t *testing.T) {
	rc := req175()
	pol, err := Balance(rc, 25*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	tuned := rc
	tuned.Policy = pol
	bres, err := core.Run(tuned)
	if err != nil {
		t.Fatal(err)
	}
	if bres.TBT >= base.TBT {
		t.Errorf("balance TBT %v not better than baseline %v", bres.TBT, base.TBT)
	}
	// And it should at least approach HeLM (within 15%).
	helm := rc
	helm.Policy = placement.HeLM{Default: placement.Baseline{CPUPct: 80, GPUPct: 20}}
	hres, err := core.Run(helm)
	if err != nil {
		t.Fatal(err)
	}
	if bres.TBT.Seconds() > hres.TBT.Seconds()*1.15 {
		t.Errorf("balance TBT %v far behind HeLM %v", bres.TBT, hres.TBT)
	}
}

func TestTuneMinTBT(t *testing.T) {
	res, err := Tune(Request{
		Model: model.OPT175B(), Memory: core.MemNVDRAM, Compress: true,
		Objective: MinTBT,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Policy == nil {
		t.Fatal("no winner")
	}
	// The winner must beat the baseline's batch-1 TBT.
	for _, tr := range res.Trials {
		if tr.PolicyName == "baseline" && tr.Batch == 1 && res.Best.TBT > tr.TBT {
			t.Errorf("winner TBT %v worse than baseline %v", res.Best.TBT, tr.TBT)
		}
	}
}

func TestTuneMaxThroughput(t *testing.T) {
	res, err := Tune(Request{
		Model: model.OPT175B(), Memory: core.MemNVDRAM, Compress: true,
		Objective: MaxThroughput,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Throughput serving picks a weight-free (or near-free) GPU and a big
	// batch (§V-C).
	if res.Best.Batch < 32 {
		t.Errorf("throughput winner batch = %d, want large", res.Best.Batch)
	}
	// And beats the baseline's best trial.
	for _, tr := range res.Trials {
		if tr.Throughput > res.Best.Throughput {
			t.Errorf("trial %s/b%d beats the declared winner", tr.PolicyName, tr.Batch)
		}
	}
}

func TestTuneQoSBound(t *testing.T) {
	// Bound TBT to ~baseline batch-1 levels; the tuner must pick a point
	// meeting it while maximizing throughput.
	res, err := Tune(Request{
		Model: model.OPT175B(), Memory: core.MemNVDRAM, Compress: true,
		Objective: MaxThroughputUnderTBT, TBTBound: units.Duration(6.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.TBT > units.Duration(6.2) {
		t.Errorf("winner violates the bound: %v", res.Best.TBT)
	}
	// Infeasible bound errors out but returns the trials.
	res2, err := Tune(Request{
		Model: model.OPT175B(), Memory: core.MemNVDRAM, Compress: true,
		Objective: MaxThroughputUnderTBT, TBTBound: units.Duration(1e-6),
	})
	if err == nil {
		t.Errorf("impossible bound satisfied: %+v", res2.Best)
	}
	if res2 == nil || len(res2.Trials) == 0 {
		t.Errorf("trials lost on infeasible bound")
	}
	// Missing bound is rejected.
	if _, err := Tune(Request{Model: model.OPT175B(), Memory: core.MemNVDRAM, Objective: MaxThroughputUnderTBT}); err == nil {
		t.Errorf("QoS objective without bound accepted")
	}
}

func TestTuneValidation(t *testing.T) {
	if _, err := Tune(Request{Model: model.Config{}, Memory: core.MemNVDRAM}); err == nil {
		t.Errorf("invalid model accepted")
	}
}

func TestBatchLadder(t *testing.T) {
	got := batchLadder(44)
	want := []int{1, 2, 4, 8, 16, 32, 44}
	if len(got) != len(want) {
		t.Fatalf("ladder = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
	if l := batchLadder(1); len(l) != 1 || l[0] != 1 {
		t.Errorf("ladder(1) = %v", l)
	}
}

func TestParetoFront(t *testing.T) {
	trials := []Trial{
		{PolicyName: "a", TBT: 1, Throughput: 10},
		{PolicyName: "b", TBT: 2, Throughput: 20},
		{PolicyName: "c", TBT: 3, Throughput: 15}, // dominated by b
		{PolicyName: "d", TBT: 2, Throughput: 5},  // dominated by b (same TBT)
	}
	front := ParetoFront(trials)
	names := map[string]bool{}
	for _, f := range front {
		names[f.PolicyName] = true
	}
	if !names["a"] || !names["b"] || names["c"] || names["d"] {
		t.Errorf("front = %v", names)
	}
}

func TestObjectiveString(t *testing.T) {
	for o, want := range map[Objective]string{
		MinTBT: "min-TBT", MaxThroughput: "max-throughput",
		MaxThroughputUnderTBT: "max-throughput-under-TBT", Objective(9): "Objective(9)",
	} {
		if got := o.String(); got != want {
			t.Errorf("String(%d) = %q", int(o), got)
		}
	}
}

func TestFixedPlacementUnknownLayer(t *testing.T) {
	f := &FixedPlacement{name: "x", layers: map[int][]placement.Assignment{}}
	if _, err := f.PlaceLayer(model.Layer{Index: 3}); err == nil {
		t.Errorf("unknown layer accepted")
	}
	if f.Name() != "x" {
		t.Errorf("name lost")
	}
}
