package sched

import (
	"math"
	"testing"

	"helmsim/internal/gpu"
	"helmsim/internal/memdev"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/quant"
	"helmsim/internal/units"
	"helmsim/internal/xfer"
)

// opts builds a standard OPT-175B option set for tests.
func opts(t *testing.T, pol placement.Policy, dev memdev.Device, batch int, compress bool) Options {
	t.Helper()
	cfg := model.OPT175B()
	mp, err := placement.PlaceModel(pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{
		Model:     cfg,
		Placement: mp,
		Devices:   TierDevices{CPU: dev},
		GPU:       gpu.NewA100(),
		Engine:    xfer.New(),
		Batch:     batch,
		PromptLen: 128,
		GenLen:    21,
	}
	if compress {
		qc := quant.Default()
		o.Compression = &qc
	}
	return o
}

func baselinePol() placement.Policy {
	return placement.Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20}
}

func TestRunBasicInvariants(t *testing.T) {
	res, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.TTFT <= 0 || res.TBT <= 0 || res.Throughput <= 0 {
		t.Fatalf("non-positive metrics: %+v", res)
	}
	if len(res.Decode) != 20 {
		t.Fatalf("decode steps = %d, want 20 (gen 21)", len(res.Decode))
	}
	if got := len(res.Prefill.Layers); got != model.OPT175B().NumLayers() {
		t.Fatalf("prefill layers = %d", got)
	}
	// Total time is the sum of parts.
	sum := res.TTFT
	for _, d := range res.Decode {
		sum += d.Time
	}
	if math.Abs(sum.Seconds()-res.TotalTime.Seconds()) > 1e-9 {
		t.Errorf("TotalTime %v != sum %v", res.TotalTime, sum)
	}
	// Throughput accounting: batch * genLen tokens over the total time.
	want := float64(1*21) / res.TotalTime.Seconds()
	if math.Abs(res.Throughput-want) > 1e-9 {
		t.Errorf("Throughput = %v, want %v", res.Throughput, want)
	}
	// TTFT includes the prologue load of layer 0.
	if res.TTFT <= res.Prefill.Time {
		t.Errorf("TTFT %v should exceed the prefill pipeline %v by the prologue", res.TTFT, res.Prefill.Time)
	}
	// Step time never undercuts either the total compute or any single
	// layer slot.
	for _, lt := range res.Prefill.Layers {
		if lt.Load < 0 || lt.Compute <= 0 {
			t.Fatalf("bad layer timing %+v", lt)
		}
	}
}

// Fig. 7a: the per-layer load series alternates between small MHA loads and
// ~2x larger FFN loads — the sawtooth.
func TestSawtoothLoadPattern(t *testing.T) {
	res, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 1, true))
	if err != nil {
		t.Fatal(err)
	}
	layers := res.Prefill.Layers
	ridges, dips := 0, 0
	for i := 1; i < len(layers)-1; i++ {
		switch layers[i].Type {
		case model.LayerFFN:
			if prev := layers[i-1]; prev.Type == model.LayerMHA && layers[i].Load > prev.Load {
				ridges++
			}
		case model.LayerMHA:
			if prev := layers[i-1]; prev.Type == model.LayerFFN && layers[i].Load < prev.Load {
				dips++
			}
		}
	}
	if ridges < 90 || dips < 90 {
		t.Errorf("sawtooth not present: %d ridges, %d dips (want ~96 each)", ridges, dips)
	}
}

// The zig-zag schedule hides transfer behind compute: pipeline time is at
// most the sum of loads plus the last compute, and at least the max of
// total compute and total load across slots.
func TestPipelineOverlapBounds(t *testing.T) {
	res, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 8, true))
	if err != nil {
		t.Fatal(err)
	}
	var sumC, sumL units.Duration
	for _, lt := range res.Prefill.Layers {
		sumC += lt.Compute
		sumL += lt.Load
	}
	if res.Prefill.Time.Seconds() < math.Max(sumC.Seconds(), sumL.Seconds())-1e-9 {
		t.Errorf("pipeline %v below lower bound max(%v, %v)", res.Prefill.Time, sumC, sumL)
	}
	if res.Prefill.Time > sumC+sumL {
		t.Errorf("pipeline %v above serial upper bound %v", res.Prefill.Time, sumC+sumL)
	}
}

// §IV-B: decode compute is insensitive to batch under compression
// (dequantization dominates), while prefill compute grows.
func TestComputeBatchSensitivity(t *testing.T) {
	r1, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 1, true))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 8, true))
	if err != nil {
		t.Fatal(err)
	}
	d1 := r1.Decode[len(r1.Decode)-1].AvgCompute().Seconds()
	d8 := r8.Decode[len(r8.Decode)-1].AvgCompute().Seconds()
	if d8/d1 > 1.10 {
		t.Errorf("decode compute grew %.2fx from batch 1->8; dequant should dominate (Fig. 12e)", d8/d1)
	}
	p1 := r1.Prefill.AvgCompute().Seconds()
	p8 := r8.Prefill.AvgCompute().Seconds()
	if p8/p1 < 1.15 {
		t.Errorf("prefill compute grew only %.2fx from batch 1->8", p8/p1)
	}
}

// Weight loads are identical across stages and steps: the same host bytes
// re-stream every token (§II-B).
func TestLoadsStageInvariant(t *testing.T) {
	res, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 1, true))
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.Prefill.Layers {
		if res.Prefill.Layers[j].Load != res.Decode[0].Layers[j].Load {
			t.Fatalf("layer %d load differs between stages", j)
		}
	}
}

// An all-GPU placement has zero load time everywhere and is bound purely by
// compute.
func TestAllGPUNoTransfers(t *testing.T) {
	o := opts(t, placement.AllGPU{}, memdev.NewDRAM(0), 1, true)
	o.Model = model.OPT6B7()
	mp, err := placement.PlaceModel(placement.AllGPU{}, o.Model)
	if err != nil {
		t.Fatal(err)
	}
	o.Placement = mp
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, lt := range res.Prefill.Layers {
		if lt.Load != 0 {
			t.Fatalf("layer %d has load %v with all-GPU placement", lt.Index, lt.Load)
		}
	}
	var sumC units.Duration
	for _, lt := range res.Prefill.Layers {
		sumC += lt.Compute
	}
	if math.Abs(res.Prefill.Time.Seconds()-sumC.Seconds()) > 1e-9 {
		t.Errorf("all-GPU pipeline %v != compute sum %v", res.Prefill.Time, sumC)
	}
}

// Compression cuts weight-transfer time roughly 3.5x (§IV-B: 72-74%) and
// raises compute (2.5x-13x).
func TestCompressionTradeoffFig6(t *testing.T) {
	raw, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 1, false))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 1, true))
	if err != nil {
		t.Fatal(err)
	}
	reduction := 1 - comp.Prefill.AvgLoad().Seconds()/raw.Prefill.AvgLoad().Seconds()
	if reduction < 0.65 || reduction > 0.85 {
		t.Errorf("compression transfer reduction = %.2f, want ~0.72 (§IV-B)", reduction)
	}
	growth := comp.Prefill.AvgCompute().Seconds() / raw.Prefill.AvgCompute().Seconds()
	if growth < 2.5 || growth > 13 {
		t.Errorf("compression compute growth = %.1fx, want 2.5-13x (§IV-B)", growth)
	}
}

// Table IV, HeLM row: vs the baseline, HeLM roughly doubles MHA compute /
// FFN load (0.36 -> 0.72) by halving the FFN transfer.
func TestHeLMBalancesPipeline(t *testing.T) {
	base, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 1, true))
	if err != nil {
		t.Fatal(err)
	}
	helm, err := Run(opts(t, placement.HeLM{Default: placement.Baseline{CPUPct: 80, GPUPct: 20}}, memdev.NewOptane(0), 1, true))
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := base.Decode[0].OverlapRatios()
	hm, _ := helm.Decode[0].OverlapRatios()
	if hm/bm < 1.7 || hm/bm > 2.5 {
		t.Errorf("HeLM should ~double MHA-compute/FFN-load: %.2f -> %.2f", bm, hm)
	}
	// §V-B: TTFT/TBT improve ~27%.
	impr := 1 - helm.TBT.Seconds()/base.TBT.Seconds()
	if impr < 0.20 || impr > 0.40 {
		t.Errorf("HeLM TBT improvement = %.1f%%, want ~27%% (§V-B)", impr*100)
	}
}

func TestValidation(t *testing.T) {
	good := opts(t, baselinePol(), memdev.NewOptane(0), 1, true)

	bad := good
	bad.Batch = 0
	if _, err := Run(bad); err == nil {
		t.Errorf("zero batch accepted")
	}
	bad = good
	bad.Placement = nil
	if _, err := Run(bad); err == nil {
		t.Errorf("nil placement accepted")
	}
	bad = good
	bad.GPU = nil
	if _, err := Run(bad); err == nil {
		t.Errorf("nil GPU accepted")
	}
	bad = good
	bad.Engine = nil
	if _, err := Run(bad); err == nil {
		t.Errorf("nil engine accepted")
	}
	bad = good
	bad.Devices.CPU = nil
	if _, err := Run(bad); err == nil {
		t.Errorf("nil CPU device accepted")
	}
	bad = good
	bad.PromptLen = 0
	if _, err := Run(bad); err == nil {
		t.Errorf("zero prompt accepted")
	}
	bad = good
	bad.GenLen = -1
	if _, err := Run(bad); err == nil {
		t.Errorf("negative gen accepted")
	}
	bad = good
	qc := quant.Config{GroupSize: 63}
	bad.Compression = &qc
	if _, err := Run(bad); err == nil {
		t.Errorf("invalid compression accepted")
	}
	// Placement/model mismatch.
	bad = good
	bad.Model = model.OPT30B()
	if _, err := Run(bad); err == nil {
		t.Errorf("mismatched placement accepted")
	}
	// Disk-tier bytes without a disk device.
	mp, err := placement.PlaceModel(placement.Baseline{DiskPct: 65, CPUPct: 15, GPUPct: 20}, model.OPT175B())
	if err != nil {
		t.Fatal(err)
	}
	bad = good
	bad.Placement = mp
	if _, err := Run(bad); err == nil {
		t.Errorf("disk placement without disk device accepted")
	}
}

func TestStageString(t *testing.T) {
	if StagePrefill.String() != "prefill" || StageDecode.String() != "decode" {
		t.Errorf("stage names broken")
	}
}

func TestAvgByTypeEmpty(t *testing.T) {
	var s StepTiming
	if got := s.AvgLoad(); got != 0 {
		t.Errorf("empty AvgLoad = %v", got)
	}
	if got := s.AvgByType(model.LayerMHA, func(lt LayerTiming) units.Duration { return lt.Load }); got != 0 {
		t.Errorf("empty AvgByType = %v", got)
	}
	if m, f := s.OverlapRatios(); m != 0 || f != 0 {
		t.Errorf("empty OverlapRatios = %v, %v", m, f)
	}
}

// Decode context grows by one token per step, raising attention cost
// monotonically.
func TestDecodeContextGrows(t *testing.T) {
	res, err := Run(opts(t, baselinePol(), memdev.NewOptane(0), 8, true))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Decode {
		if want := 128 + 1 + i; d.Ctx != want {
			t.Fatalf("decode step %d ctx = %d, want %d", i, d.Ctx, want)
		}
	}
	c0 := res.Decode[0].AvgCompute()
	cN := res.Decode[len(res.Decode)-1].AvgCompute()
	if cN < c0 {
		t.Errorf("attention cost should not shrink as context grows: %v -> %v", c0, cN)
	}
}
