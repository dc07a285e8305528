package core

import (
	"strings"
	"testing"

	"helmsim/internal/model"
	"helmsim/internal/placement"
)

func TestMemoryConfigRoundTrip(t *testing.T) {
	for _, m := range []MemoryConfig{MemDRAM, MemNVDRAM, MemMemoryMode, MemSSD, MemFSDAX, MemCXLFPGA, MemCXLASIC} {
		got, err := ParseMemoryConfig(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v: got %v, %v", m, got, err)
		}
		devs, err := m.Devices()
		if err != nil {
			t.Errorf("%v.Devices: %v", m, err)
		}
		if devs.CPU == nil {
			t.Errorf("%v has nil CPU device", m)
		}
		wantDisk := m == MemSSD || m == MemFSDAX
		if (devs.Disk != nil) != wantDisk {
			t.Errorf("%v disk presence = %v, want %v", m, devs.Disk != nil, wantDisk)
		}
	}
	if _, err := ParseMemoryConfig("HBM"); err == nil {
		t.Errorf("unknown config accepted")
	}
	if MemoryConfig(99).String() == "" {
		t.Errorf("unknown config String empty")
	}
	if _, err := MemoryConfig(99).Devices(); err == nil {
		t.Errorf("unknown config Devices accepted")
	}
}

func TestDefaultPolicies(t *testing.T) {
	// §V-A: SSD/FSDAX use (65, 15, 20); NVDRAM/MemoryMode use (0, 80, 20).
	p := DefaultPolicy(model.OPT175B(), MemSSD, false).(placement.Baseline)
	if p.DiskPct != 65 || p.CPUPct != 15 || p.GPUPct != 20 {
		t.Errorf("SSD default = %+v", p)
	}
	p = DefaultPolicy(model.OPT175B(), MemNVDRAM, false).(placement.Baseline)
	if p.DiskPct != 0 || p.CPUPct != 80 || p.GPUPct != 20 {
		t.Errorf("NVDRAM default = %+v", p)
	}
	p = DefaultPolicy(model.OPT30B(), MemDRAM, false).(placement.Baseline)
	if p.GPUPct != 50 {
		t.Errorf("OPT-30B default = %+v", p)
	}
}

// Regression for the compression-blind ladder: the GPU rung must be sized
// with the stored (compressed) weight bytes, not the raw FP16 bytes.
//
// OPT-66B is where the bug bites: 4-bit weights fit the 50% rung
// (~17 GiB achieved vs a 31 GB budget), but the raw-sized ladder
// pessimistically fell back to (0, 80, 20). OPT-175B is deliberately NOT
// the witness — its chunky achieved allocation jumps from ~7.6 GiB
// straight to ~38 GiB at the 26% boundary, overshooting the budget even
// compressed, so raw and compressed ladders land on the same (0, 80, 20)
// and the paper's published defaults stay intact.
func TestDefaultPolicyCompressionAware(t *testing.T) {
	raw := DefaultPolicy(model.OPT66B(), MemNVDRAM, false).(placement.Baseline)
	comp := DefaultPolicy(model.OPT66B(), MemNVDRAM, true).(placement.Baseline)
	if comp.GPUPct <= raw.GPUPct {
		t.Errorf("compressed OPT-66B default GPU share = %v, want > uncompressed %v", comp.GPUPct, raw.GPUPct)
	}
	// The achieved compressed allocation must still fit the weight budget.
	mp, err := placement.PlaceModel(comp, model.OPT66B())
	if err != nil {
		t.Fatal(err)
	}
	sizer := placement.SizerFor(RunConfig{Compress: true}.Quantizer())
	if got := mp.TotalOn(placement.TierGPU, sizer); got > defaultGPUWeightBudget {
		t.Errorf("compressed default claims %v of GPU weights, budget %v", got, defaultGPUWeightBudget)
	}
	// OPT-175B and OPT-30B defaults are compression-invariant (plateau
	// overshoot and first-rung fit respectively) — the paper's published
	// placements must not move.
	for _, m := range []model.Config{model.OPT175B(), model.OPT30B()} {
		r := DefaultPolicy(m, MemNVDRAM, false).(placement.Baseline)
		c := DefaultPolicy(m, MemNVDRAM, true).(placement.Baseline)
		if r != c {
			t.Errorf("%s default moved under compression: %+v vs %+v", m.Name, r, c)
		}
	}
	// Storage configurations keep the paper's fixed (65, 15, 20) split
	// regardless of compression.
	if p := DefaultPolicy(model.OPT175B(), MemFSDAX, true).(placement.Baseline); p.DiskPct != 65 {
		t.Errorf("FSDAX compressed default = %+v", p)
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(RunConfig{Model: model.OPT175B(), Memory: MemNVDRAM, Batch: 1, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TTFT <= 0 || res.TBT <= 0 || res.Throughput <= 0 {
		t.Fatalf("bad metrics: %+v", res.Result)
	}
	if res.MaxBatch < res.Batch {
		t.Errorf("MaxBatch %d below the running batch", res.MaxBatch)
	}
	if res.GPUWeightBytes <= 0 {
		t.Errorf("no GPU weights under (0,80,20)")
	}
}

// §IV-B: uncompressed OPT-175B does not fit an all-DRAM host — the paper
// has no DRAM configuration for it.
func TestUncompressedOPT175BRejectsDRAM(t *testing.T) {
	_, err := Run(RunConfig{Model: model.OPT175B(), Memory: MemDRAM, Batch: 1})
	if err == nil {
		t.Fatal("uncompressed OPT-175B on DRAM should exceed capacity")
	}
	if !strings.Contains(err.Error(), "DRAM") {
		t.Errorf("unhelpful capacity error: %v", err)
	}
	// Compression makes it fit (§IV-B: "allows the model to fit entirely
	// on host memory, even with traditional DRAM").
	if _, err := Run(RunConfig{Model: model.OPT175B(), Memory: MemDRAM, Batch: 1, Compress: true}); err != nil {
		t.Errorf("compressed OPT-175B on DRAM should fit: %v", err)
	}
}

// §V-C: the batch cap is ~8 for the baseline uncompressed OPT-175B and far
// higher for All-CPU; batch 44 is only admissible without GPU weights.
func TestBatchCapsMatchPaper(t *testing.T) {
	baseCap, err := MaxBatchFor(RunConfig{Model: model.OPT175B(), Memory: MemNVDRAM, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if baseCap < 6 || baseCap > 10 {
		t.Errorf("baseline uncompressed cap = %d, want ~8 (§IV-B)", baseCap)
	}
	allCap, err := MaxBatchFor(RunConfig{Model: model.OPT175B(), Memory: MemNVDRAM, Policy: placement.AllCPU{}, Batch: 1, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if allCap < 44 {
		t.Errorf("All-CPU cap = %d, must admit the paper's batch 44 (§V-C)", allCap)
	}
	// Running over the cap errors with a helpful message.
	_, err = Run(RunConfig{Model: model.OPT175B(), Memory: MemNVDRAM, Batch: 44})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("over-cap run: %v", err)
	}
	// OPT-30B admits the paper's batch 32.
	cap30, err := MaxBatchFor(RunConfig{Model: model.OPT30B(), Memory: MemNVDRAM, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cap30 < 32 {
		t.Errorf("OPT-30B cap = %d, must admit batch 32 (§IV-B)", cap30)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{Model: model.OPT30B(), Memory: MemDRAM, Batch: 0}); err == nil {
		t.Errorf("zero batch accepted")
	}
	if _, err := Run(RunConfig{Model: model.Config{Name: "bad"}, Memory: MemDRAM, Batch: 1}); err == nil {
		t.Errorf("invalid model accepted")
	}
	if _, err := Run(RunConfig{Model: model.OPT30B(), Memory: MemoryConfig(99), Batch: 1}); err == nil {
		t.Errorf("invalid memory config accepted")
	}
	// A disk-spilling policy on a memory-only config must fail.
	if _, err := Run(RunConfig{
		Model: model.OPT175B(), Memory: MemNVDRAM, Batch: 1,
		Policy: placement.Baseline{DiskPct: 65, CPUPct: 15, GPUPct: 20},
	}); err == nil {
		t.Errorf("disk policy on memory-only config accepted")
	}
}

// The CXL projections run the same engine with the expander as host tier
// (§V-D).
func TestCXLProjectionRuns(t *testing.T) {
	fpga, err := Run(RunConfig{Model: model.OPT175B(), Memory: MemCXLFPGA, Batch: 1, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	asic, err := Run(RunConfig{Model: model.OPT175B(), Memory: MemCXLASIC, Batch: 1, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := Run(RunConfig{Model: model.OPT175B(), Memory: MemNVDRAM, Batch: 1, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	// Table IV ordering: CXL-FPGA << NVDRAM < CXL-ASIC in transfer speed,
	// hence the inverse in TBT.
	if !(fpga.TBT > nv.TBT && nv.TBT > asic.TBT) {
		t.Errorf("TBT ordering broken: FPGA %v, NVDRAM %v, ASIC %v", fpga.TBT, nv.TBT, asic.TBT)
	}
}
