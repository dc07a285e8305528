package experiments

import (
	"testing"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
)

func runFor(t *testing.T, mem core.MemoryConfig, pol placement.Policy, batch int) (core.RunConfig, *core.RunResult) {
	t.Helper()
	rc := core.RunConfig{Model: model.OPT175B(), Memory: mem, Policy: pol, Batch: batch, Compress: true}
	res, err := core.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	return rc, res
}

func TestEstimateBasics(t *testing.T) {
	rc, res := runFor(t, core.MemNVDRAM, nil, 1)
	b, err := estimateEnergy(rc, res)
	if err != nil {
		t.Fatal(err)
	}
	if b.TransferJ <= 0 || b.GPUJ <= 0 || b.HostStandbyJ <= 0 || b.HostBaseJ <= 0 {
		t.Fatalf("non-positive components: %+v", b)
	}
	if b.TotalJ != b.TransferJ+b.GPUJ+b.HostStandbyJ+b.HostBaseJ {
		t.Errorf("total mismatch")
	}
	if b.PerTokenJ <= 0 || b.TokensPerJoule <= 0 {
		t.Errorf("per-token metrics missing: %+v", b)
	}
	if _, err := estimateEnergy(rc, nil); err == nil {
		t.Errorf("nil result accepted")
	}
}

// The abstract's argument: at matched performance (HeLM), the Optane system
// provisions the working set at far lower standby power, so its standby
// energy per run is well below the DRAM system's — while total energy per
// token stays in the same ballpark.
func TestOptaneStandbyAdvantage(t *testing.T) {
	helm := placement.HeLM{Default: placement.Baseline{CPUPct: 80, GPUPct: 20}}
	rcNV, resNV := runFor(t, core.MemNVDRAM, helm, 1)
	rcDR, resDR := runFor(t, core.MemDRAM, helm, 1)
	bNV, err := estimateEnergy(rcNV, resNV)
	if err != nil {
		t.Fatal(err)
	}
	bDR, err := estimateEnergy(rcDR, resDR)
	if err != nil {
		t.Fatal(err)
	}
	// Standby power per provisioned byte is ~5x lower on Optane; run time
	// is within 8%, so standby energy must be much lower.
	if bNV.HostStandbyJ >= bDR.HostStandbyJ/2 {
		t.Errorf("Optane standby %v not well below DRAM %v", bNV.HostStandbyJ, bDR.HostStandbyJ)
	}
	// Total per-token energy within 25% of the DRAM system.
	if bNV.PerTokenJ > bDR.PerTokenJ*1.25 {
		t.Errorf("Optane per-token %v too far above DRAM %v", bNV.PerTokenJ, bDR.PerTokenJ)
	}
}

// Batching amortizes the platform's fixed power: per-token energy falls
// steeply from batch 1 to the All-CPU maximum.
func TestBatchingImprovesEnergyEfficiency(t *testing.T) {
	rc1, res1 := runFor(t, core.MemNVDRAM, placement.AllCPU{}, 1)
	rc44, res44 := runFor(t, core.MemNVDRAM, placement.AllCPU{}, 44)
	b1, err := estimateEnergy(rc1, res1)
	if err != nil {
		t.Fatal(err)
	}
	b44, err := estimateEnergy(rc44, res44)
	if err != nil {
		t.Fatal(err)
	}
	if b44.PerTokenJ >= b1.PerTokenJ/3 {
		t.Errorf("batch 44 per-token %v should be several times below batch 1 %v", b44.PerTokenJ, b1.PerTokenJ)
	}
}

// Storage paths pay extra media + bounce energy per byte.
func TestStorageTransferEnergyHigher(t *testing.T) {
	rcS, resS := runFor(t, core.MemSSD, placement.Baseline{DiskPct: 65, CPUPct: 15, GPUPct: 20}, 1)
	rcN, resN := runFor(t, core.MemNVDRAM, nil, 1)
	bS, err := estimateEnergy(rcS, resS)
	if err != nil {
		t.Fatal(err)
	}
	bN, err := estimateEnergy(rcN, resN)
	if err != nil {
		t.Fatal(err)
	}
	if bS.TransferJ <= bN.TransferJ {
		t.Errorf("SSD transfer energy %v not above NVDRAM %v", bS.TransferJ, bN.TransferJ)
	}
}
