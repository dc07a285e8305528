package kvcache

import (
	"testing"
	"testing/quick"

	"helmsim/internal/calib"
	"helmsim/internal/model"
	"helmsim/internal/units"
)

func TestBudgetFree(t *testing.T) {
	b := Budget{Capacity: 40 * units.GB, WeightBytes: 30 * units.GB, StagingBytes: 5 * units.GB, Reserved: 2 * units.GB}
	if got := b.Free(); got != 3*units.GB {
		t.Errorf("Free = %v, want 3 GB", got)
	}
	over := Budget{Capacity: 10 * units.GB, WeightBytes: 20 * units.GB}
	if got := over.Free(); got != 0 {
		t.Errorf("overcommitted Free = %v, want 0", got)
	}
}

func TestMaxBatchValidation(t *testing.T) {
	cfg := model.OPT30B()
	b := DefaultBudget(0, 0)
	if _, err := MaxBatch(cfg, 0, 21, b); err == nil {
		t.Errorf("zero prompt length accepted")
	}
	if _, err := MaxBatch(cfg, 128, 0, b); err == nil {
		t.Errorf("zero gen length accepted")
	}
	if _, err := MaxBatch(model.Config{Name: "bad"}, 128, 21, b); err == nil {
		t.Errorf("invalid config accepted")
	}
}

// §V-C: freeing the GPU of weights (All-CPU) raises the OPT-175B batch cap
// roughly 5-6x relative to the baseline's weight-laden budget.
func TestMaxBatchAllCPUMultiplier(t *testing.T) {
	cfg := model.OPT175B()
	// Baseline uncompressed: the (0,80,20) achieved GPU share (~8.4%,
	// ~29.2 GB) plus the FFN double-buffer.
	ffn := cfg.Layers()[2].WeightBytes()
	w := units.Bytes(0.0837 * float64(cfg.TotalWeightBytes()))
	baseline := DefaultBudget(w, calib.StagingBufferCount*ffn)
	bBase, err := MaxBatch(cfg, calib.PromptLen, calib.GenLen, baseline)
	if err != nil {
		t.Fatal(err)
	}
	// All-CPU compressed: no GPU weights, compressed staging.
	allCPU := DefaultBudget(0, calib.StagingBufferCount*ffn*29/100)
	bAll, err := MaxBatch(cfg, calib.PromptLen, calib.GenLen, allCPU)
	if err != nil {
		t.Fatal(err)
	}
	if bBase < 6 || bBase > 10 {
		t.Errorf("baseline max batch = %d, want ~8 (§IV-B)", bBase)
	}
	if bAll < 40 || bAll > 60 {
		t.Errorf("All-CPU max batch = %d, want ~44-54 (§V-C; see EXPERIMENTS.md)", bAll)
	}
	mult := float64(bAll) / float64(bBase)
	if mult < 4.5 || mult > 8 {
		t.Errorf("All-CPU batch multiplier = %.1f, want ~5.5-7", mult)
	}
}

// §IV-B: OPT-30B runs up to batch 32. With the (0,50,50) placement (50%
// GPU share, ~30 GB) the solver's cap must admit 32 without huge slack.
func TestMaxBatchOPT30B(t *testing.T) {
	cfg := model.OPT30B()
	ffn := cfg.Layers()[2].WeightBytes()
	b := DefaultBudget(units.Bytes(0.50*float64(cfg.TotalWeightBytes())), calib.StagingBufferCount*ffn)
	got, err := MaxBatch(cfg, calib.PromptLen, calib.GenLen, b)
	if err != nil {
		t.Fatal(err)
	}
	if got < 32 || got > 45 {
		t.Errorf("OPT-30B max batch = %d, want in [32, 45] (paper runs batch 32)", got)
	}
}

// Property: MaxBatch is monotone — more GPU weights never increase the
// batch cap.
func TestMaxBatchMonotoneProperty(t *testing.T) {
	cfg := model.OPT175B()
	f := func(a, b uint8) bool {
		w1 := units.Bytes(a%40) * units.GB
		w2 := w1 + units.Bytes(b%10)*units.GB
		m1, e1 := MaxBatch(cfg, 128, 21, DefaultBudget(w1, 0))
		m2, e2 := MaxBatch(cfg, 128, 21, DefaultBudget(w2, 0))
		return e1 == nil && e2 == nil && m2 <= m1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
