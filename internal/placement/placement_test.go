package placement

import (
	"math"
	"testing"
	"testing/quick"

	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/units"
)

// §V-A: "for (storage, host, GPU) ratios of (65, 15, 20) under SSD/FSDAX
// configurations, the achieved overall weight distribution is
// (58.6, 33.1, 8.3)".
func TestBaselineAchievedDistributionSSD(t *testing.T) {
	mp, err := PlaceModel(Baseline{DiskPct: 65, CPUPct: 15, GPUPct: 20}, model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	d := mp.AchievedDistribution(RawSizer)
	if math.Abs(d.DiskPct-58.6) > 1.0 {
		t.Errorf("disk = %.1f, want ~58.6", d.DiskPct)
	}
	if math.Abs(d.CPUPct-33.1) > 1.0 {
		t.Errorf("cpu = %.1f, want ~33.1", d.CPUPct)
	}
	if math.Abs(d.GPUPct-8.3) > 1.0 {
		t.Errorf("gpu = %.1f, want ~8.3", d.GPUPct)
	}
}

// §V-A: "the input and achieved distribution for NVDRAM/MemoryMode is
// (0, 80, 20) and (0, 91.7, 8.3), respectively".
func TestBaselineAchievedDistributionNVDRAM(t *testing.T) {
	mp, err := PlaceModel(Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20}, model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	d := mp.AchievedDistribution(RawSizer)
	if d.DiskPct != 0 {
		t.Errorf("disk = %.1f, want 0", d.DiskPct)
	}
	if math.Abs(d.CPUPct-91.7) > 1.0 {
		t.Errorf("cpu = %.1f, want ~91.7", d.CPUPct)
	}
	if math.Abs(d.GPUPct-8.3) > 1.0 {
		t.Errorf("gpu = %.1f, want ~8.3", d.GPUPct)
	}
}

// Fig. 7c: under (0,80,20) "the larger FFN layer gets no allocation on the
// GPU while the smaller MHA layer does" — MHA lands ~25% GPU (w_out plus
// trailing small tensors), FFN ~100% host.
func TestBaselinePerTypeDistributionFig7c(t *testing.T) {
	mp, err := PlaceModel(Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20}, model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	mha := mp.DistributionByType(model.LayerMHA, RawSizer)
	ffn := mp.DistributionByType(model.LayerFFN, RawSizer)
	if mha.GPUPct < 20 || mha.GPUPct > 30 {
		t.Errorf("MHA gpu = %.1f, want ~25", mha.GPUPct)
	}
	if ffn.GPUPct > 1 {
		t.Errorf("FFN gpu = %.1f, want ~0", ffn.GPUPct)
	}
	if ffn.CPUPct < 99 {
		t.Errorf("FFN cpu = %.1f, want ~100", ffn.CPUPct)
	}
}

// Fig. 7b: under (65,15,20) the FFN splits ~50/50 between storage and host
// while MHA splits ~75/25 between storage and GPU.
func TestBaselinePerTypeDistributionFig7b(t *testing.T) {
	mp, err := PlaceModel(Baseline{DiskPct: 65, CPUPct: 15, GPUPct: 20}, model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	mha := mp.DistributionByType(model.LayerMHA, RawSizer)
	ffn := mp.DistributionByType(model.LayerFFN, RawSizer)
	if math.Abs(mha.DiskPct-75) > 2 || math.Abs(mha.GPUPct-25) > 2 {
		t.Errorf("MHA = %v, want ~(75, 0, 25)", mha)
	}
	if math.Abs(ffn.DiskPct-50) > 2 || math.Abs(ffn.CPUPct-50) > 2 {
		t.Errorf("FFN = %v, want ~(50, 50, 0)", ffn)
	}
}

// Fig. 10 / §V-B: HeLM keeps only biases and norms of MHA on the GPU
// (~0.04% of MHA bytes) and pins fc1 — half the FFN bulk — on the GPU.
func TestHeLMDistribution(t *testing.T) {
	h := HeLM{Default: Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20}}
	mp, err := PlaceModel(h, model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	mha := mp.DistributionByType(model.LayerMHA, RawSizer)
	ffn := mp.DistributionByType(model.LayerFFN, RawSizer)
	if mha.GPUPct > 0.1 {
		t.Errorf("HeLM MHA gpu = %.3f%%, want ~0.04%% (biases+norms only)", mha.GPUPct)
	}
	if mha.CPUPct < 99.8 {
		t.Errorf("HeLM MHA cpu = %.2f%%, want ~99.96%%", mha.CPUPct)
	}
	if math.Abs(ffn.GPUPct-50) > 1 {
		t.Errorf("HeLM FFN gpu = %.1f%%, want ~50%% (fc1)", ffn.GPUPct)
	}
	// Verify fc1 specifically landed on the GPU and fc2 on the host.
	for _, lp := range mp.Layers {
		if lp.Layer.Type != model.LayerFFN {
			continue
		}
		for _, a := range lp.Assignments {
			switch a.Spec.Name {
			case "w_fc1":
				if a.Tier != TierGPU {
					t.Fatalf("w_fc1 on %v, want gpu (§V-B)", a.Tier)
				}
			case "w_fc2":
				if a.Tier != TierCPU {
					t.Fatalf("w_fc2 on %v, want cpu", a.Tier)
				}
			}
		}
		break
	}
}

// Fig. 11a: vs baseline, HeLM cuts the host-resident FFN bytes ~49% and
// grows the host-resident MHA bytes ~33%.
func TestHeLMLoadDeltaVsBaseline(t *testing.T) {
	cfg := model.OPT175B()
	base, err := PlaceModel(Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	helm, err := PlaceModel(HeLM{Default: Baseline{CPUPct: 80, GPUPct: 20}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layerHost := func(mp *ModelPlacement, lt model.LayerType) units.Bytes {
		for _, lp := range mp.Layers {
			if lp.Layer.Type == lt {
				return lp.BytesOn(TierCPU, RawSizer)
			}
		}
		return 0
	}
	ffnDelta := 1 - float64(layerHost(helm, model.LayerFFN))/float64(layerHost(base, model.LayerFFN))
	if math.Abs(ffnDelta-0.4933) > 0.02 {
		t.Errorf("FFN host bytes reduction = %.3f, want ~0.493 (§V-B: 49.33%%)", ffnDelta)
	}
	mhaDelta := float64(layerHost(helm, model.LayerMHA))/float64(layerHost(base, model.LayerMHA)) - 1
	if math.Abs(mhaDelta-0.3255) > 0.02 {
		t.Errorf("MHA host bytes growth = %.3f, want ~0.326 (§V-B: 32.55%%)", mhaDelta)
	}
}

func TestAllCPUAndAllGPU(t *testing.T) {
	cfg := model.OPT30B()
	cpuMP, err := PlaceModel(AllCPU{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := cpuMP.AchievedDistribution(RawSizer)
	if d.CPUPct != 100 {
		t.Errorf("AllCPU cpu = %.1f, want 100", d.CPUPct)
	}
	gpuMP, err := PlaceModel(AllGPU{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g := gpuMP.AchievedDistribution(RawSizer); g.GPUPct != 100 {
		t.Errorf("AllGPU gpu = %.1f, want 100", g.GPUPct)
	}
}

func TestPolicyNames(t *testing.T) {
	if (Baseline{DiskPct: 65, CPUPct: 15, GPUPct: 20}).Name() == "" {
		t.Error("empty baseline name")
	}
	if (HeLM{}).Name() != "helm" {
		t.Error("helm name")
	}
	if (AllCPU{}).Name() != "all-cpu" || (AllGPU{}).Name() != "all-gpu" {
		t.Error("policy names")
	}
}

func TestInitWeightListValidation(t *testing.T) {
	specs := model.OPT30B().Layers()[1].Weights
	if _, err := initWeightList(specs, []float64{50, 50}, []Tier{TierDisk, TierCPU, TierGPU}); err == nil {
		t.Errorf("mismatched lengths accepted")
	}
	if _, err := initWeightList(specs, []float64{50, 40, 20}, []Tier{TierDisk, TierCPU, TierGPU}); err == nil {
		t.Errorf("percents summing to 110 accepted")
	}
	if _, err := initWeightList(specs, []float64{-10, 90, 20}, []Tier{TierDisk, TierCPU, TierGPU}); err == nil {
		t.Errorf("negative percent accepted")
	}
}

func TestGetChoiceBoundaries(t *testing.T) {
	percents := []float64{65, 15, 20}
	choices := []Tier{TierDisk, TierCPU, TierGPU}
	cases := []struct {
		cur  float64
		want Tier
	}{
		{0, TierDisk}, {64.99, TierDisk}, {65, TierCPU}, {79.99, TierCPU},
		{80, TierGPU}, {99.99, TierGPU}, {100, TierGPU}, {150, TierGPU},
	}
	for _, c := range cases {
		if got := getChoice(c.cur, percents, choices); got != c.want {
			t.Errorf("getChoice(%v) = %v, want %v", c.cur, got, c.want)
		}
	}
}

func TestCompressedSizerChangesBytesNotShares(t *testing.T) {
	// Percent-based allocation is scale-invariant: compressing all specs by
	// a near-constant factor leaves the achieved shares intact while
	// shrinking absolute bytes ~3.56x.
	cfg := model.OPT175B()
	qc := quant.Default()
	qSizer := func(s model.WeightSpec) units.Bytes { return qc.CompressedBytes(s.Elems) }
	mp, err := PlaceModel(Baseline{CPUPct: 80, GPUPct: 20}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := mp.AchievedDistribution(RawSizer)
	comp := mp.AchievedDistribution(qSizer)
	if math.Abs(raw.CPUPct-comp.CPUPct) > 0.5 {
		t.Errorf("compression changed shares: %v vs %v", raw, comp)
	}
	r := float64(mp.TotalOn(TierCPU, qSizer)) / float64(mp.TotalOn(TierCPU, RawSizer))
	// 4 bits plus 32 bits of metadata per 64 elements, over fp16 (§IV-B).
	if want := 4.5 / 16; math.Abs(r-want) > 0.01 {
		t.Errorf("compressed/raw = %.4f, want %.4f", r, want)
	}
}

func TestPlaceModelRejectsInvalidConfig(t *testing.T) {
	bad := model.Config{Name: "bad"}
	if _, err := PlaceModel(AllCPU{}, bad); err == nil {
		t.Errorf("invalid config accepted")
	}
}

func TestDistributionHelpers(t *testing.T) {
	d := Distribution{DiskPct: 10, CPUPct: 60, GPUPct: 30}
	if d.Pct(TierDisk) != 10 || d.Pct(TierCPU) != 60 || d.Pct(TierGPU) != 30 {
		t.Errorf("Pct broken: %v", d)
	}
	if d.String() != "(10.0, 60.0, 30.0)" {
		t.Errorf("String = %q", d.String())
	}
	if TierDisk.String() != "disk" || TierCPU.String() != "cpu" || TierGPU.String() != "gpu" {
		t.Errorf("tier names broken")
	}
	if Tier(9).String() != "Tier(9)" {
		t.Errorf("unknown tier name")
	}
	if got := distribution(nil, RawSizer); got != (Distribution{}) {
		t.Errorf("empty distribution = %v", got)
	}
}

// Property: every weight is assigned exactly once and total bytes are
// conserved, for any valid percent split.
func TestPlacementConservesBytesProperty(t *testing.T) {
	cfg := model.OPT13B()
	want := cfg.TotalWeightBytes()
	f := func(a, b uint8) bool {
		disk := float64(a % 101)
		rest := 100 - disk
		cpu := rest * float64(b%101) / 100
		gpu := 100 - disk - cpu
		mp, err := PlaceModel(Baseline{DiskPct: disk, CPUPct: cpu, GPUPct: gpu}, cfg)
		if err != nil {
			return false
		}
		total := mp.TotalOn(TierDisk, RawSizer) + mp.TotalOn(TierCPU, RawSizer) + mp.TotalOn(TierGPU, RawSizer)
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: achieved GPU share is monotone (non-decreasing) in the
// requested GPU percent for the baseline policy.
func TestBaselineMonotoneGPUProperty(t *testing.T) {
	cfg := model.OPT30B()
	f := func(a, b uint8) bool {
		g1 := float64(a % 101)
		g2 := float64(b % 101)
		if g1 > g2 {
			g1, g2 = g2, g1
		}
		mp1, err1 := PlaceModel(Baseline{CPUPct: 100 - g1, GPUPct: g1}, cfg)
		mp2, err2 := PlaceModel(Baseline{CPUPct: 100 - g2, GPUPct: g2}, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		return mp2.AchievedDistribution(RawSizer).GPUPct >= mp1.AchievedDistribution(RawSizer).GPUPct-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
