// Package core is the out-of-core inference engine: it binds a model, a
// memory configuration (Table II), a weight-placement policy and a batch
// size into one executable run on the simulated platform, enforcing the
// real capacity constraints (host memory, GPU memory, batch cap) that shape
// the paper's results.
package core

import (
	"fmt"

	"helmsim/internal/calib"
	"helmsim/internal/gpu"
	"helmsim/internal/kvcache"
	"helmsim/internal/memdev"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/quant"
	"helmsim/internal/sched"
	"helmsim/internal/units"
	"helmsim/internal/xfer"
)

// MemoryConfig selects one of the paper's host memory configurations
// (Table II) or a projected CXL expander (Table III).
type MemoryConfig int

// Memory configurations.
const (
	// MemDRAM: weights in DDR4 DRAM.
	MemDRAM MemoryConfig = iota
	// MemNVDRAM: weights in Optane exposed as a flat memory NUMA node.
	MemNVDRAM
	// MemMemoryMode: Optane main memory with DRAM as direct-mapped cache.
	MemMemoryMode
	// MemSSD: spilled weights on an NVMe SSD, host tier in DRAM.
	MemSSD
	// MemFSDAX: spilled weights on Optane via ext4-DAX, host tier in DRAM.
	MemFSDAX
	// MemCXLFPGA: host tier on the FPGA-controller CXL expander.
	MemCXLFPGA
	// MemCXLASIC: host tier on the ASIC-controller CXL expander.
	MemCXLASIC
)

// String names the configuration with the paper's labels.
func (m MemoryConfig) String() string {
	switch m {
	case MemDRAM:
		return "DRAM"
	case MemNVDRAM:
		return "NVDRAM"
	case MemMemoryMode:
		return "MemoryMode"
	case MemSSD:
		return "SSD"
	case MemFSDAX:
		return "FSDAX"
	case MemCXLFPGA:
		return "CXL-FPGA"
	case MemCXLASIC:
		return "CXL-ASIC"
	default:
		return fmt.Sprintf("MemoryConfig(%d)", int(m))
	}
}

// ParseMemoryConfig resolves a configuration label.
func ParseMemoryConfig(s string) (MemoryConfig, error) {
	for _, m := range []MemoryConfig{MemDRAM, MemNVDRAM, MemMemoryMode, MemSSD, MemFSDAX, MemCXLFPGA, MemCXLASIC} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown memory config %q", s)
}

// Devices instantiates the tier devices of the configuration. The GPU pulls
// through NUMA node 0 (§IV-A), so node-0 devices model the LLM runs.
func (m MemoryConfig) Devices() (sched.TierDevices, error) {
	switch m {
	case MemDRAM:
		return sched.TierDevices{CPU: memdev.NewDRAM(0)}, nil
	case MemNVDRAM:
		return sched.TierDevices{CPU: memdev.NewOptane(0)}, nil
	case MemMemoryMode:
		return sched.TierDevices{CPU: memdev.NewMemoryMode(0)}, nil
	case MemSSD:
		return sched.TierDevices{CPU: memdev.NewDRAM(0), Disk: memdev.NewSSD()}, nil
	case MemFSDAX:
		return sched.TierDevices{CPU: memdev.NewDRAM(0), Disk: memdev.NewFSDAX(0)}, nil
	case MemCXLFPGA:
		return sched.TierDevices{CPU: memdev.NewCXL("CXL-FPGA", calib.CXLFPGABandwidth, units.TiB)}, nil
	case MemCXLASIC:
		return sched.TierDevices{CPU: memdev.NewCXL("CXL-ASIC", calib.CXLASICBandwidth, units.TiB)}, nil
	default:
		return sched.TierDevices{}, fmt.Errorf("core: unknown memory config %d", int(m))
	}
}

// hostNodes is how many NUMA nodes' worth of capacity the host tier spans:
// FlexGen interleaves pinned weights across both sockets' pools.
const hostNodes = 2

// RunConfig is one experiment point.
type RunConfig struct {
	// Model is the served model.
	Model model.Config
	// Memory is the host memory configuration.
	Memory MemoryConfig
	// Policy is the weight placement policy. Nil selects the paper's
	// default for the model/config (DefaultPolicy).
	Policy placement.Policy
	// Batch is the batch size; it must fit the GPU memory budget.
	Batch int
	// PromptLen and GenLen default to the paper's 128/21 when zero.
	PromptLen, GenLen int
	// Compress enables group-wise 4-bit quantization of all weights.
	Compress bool
}

// Canonical returns the configuration with every defaulted field resolved:
// the paper's 128/21 prompt/generation lengths and the model/memory default
// policy. Run and MaxBatchFor apply it first, so two configurations that
// canonicalize identically run identically.
func (rc RunConfig) Canonical() RunConfig {
	if rc.PromptLen == 0 {
		rc.PromptLen = calib.PromptLen
	}
	if rc.GenLen == 0 {
		rc.GenLen = calib.GenLen
	}
	if rc.Policy == nil {
		rc.Policy = DefaultPolicy(rc.Model, rc.Memory, rc.Compress)
	}
	return rc
}

// defaultGPUWeightBudget caps the GPU weight bytes a default placement may
// claim, leaving room for staging, KV cache and reserve on the 40 GB A100.
const defaultGPUWeightBudget = 31 * units.GB

// Quantizer is the run's weight quantizer: quant.Default when Compress
// is set, nil otherwise. placement.PlaceModel records every weight's
// stored size under it, and the schedule charges its dequantization.
func (rc RunConfig) Quantizer() *quant.Config {
	if !rc.Compress {
		return nil
	}
	c := quant.Default()
	return &c
}

// solveBudget derives a placement's GPU memory plan: the resident weight
// bytes, the double-buffered staging allocation for the largest off-GPU
// layer, and the largest batch the remaining budget admits. Run and
// MaxBatchFor share it so the two paths cannot drift.
func solveBudget(rc RunConfig, mp *placement.ModelPlacement) (gpuBytes, staging units.Bytes, maxBatch int, err error) {
	gpuBytes = mp.TotalOn(placement.TierGPU)
	var maxOffGPU units.Bytes
	for _, lp := range mp.Layers {
		off := lp.BytesOn(placement.TierCPU) + lp.BytesOn(placement.TierDisk)
		if off > maxOffGPU {
			maxOffGPU = off
		}
	}
	staging = units.Bytes(calib.StagingBufferCount) * maxOffGPU
	maxBatch, err = kvcache.MaxBatch(rc.Model, rc.PromptLen, rc.GenLen, kvcache.DefaultBudget(gpuBytes, staging))
	return gpuBytes, staging, maxBatch, err
}

// DefaultPolicy is the paper's placement for each model/memory pair: the
// (65, 15, 20) storage split on SSD/FSDAX, and otherwise the largest GPU
// percentage from the {50, 40, 30, 20, 10} ladder whose *achieved*
// allocation (the chunky cumsum outcome, §V-A) fits the GPU weight budget.
// The ladder sizes candidates with the run's stored weight size — 4-bit
// compressed runs pack ~4x more weights per rung — so compressed and
// uncompressed runs each get the largest default the budget truly admits.
// Uncompressed, the ladder lands on the paper's choices: (0, 50, 50) for
// OPT-30B, (0, 80, 20) for OPT-175B.
func DefaultPolicy(m model.Config, mem MemoryConfig, compress bool) placement.Policy {
	if mem == MemSSD || mem == MemFSDAX {
		return placement.Baseline{DiskPct: 65, CPUPct: 15, GPUPct: 20}
	}
	qc := RunConfig{Compress: compress}.Quantizer()
	for _, g := range []float64{50, 40, 30, 20, 10} {
		cand := placement.Baseline{DiskPct: 0, CPUPct: 100 - g, GPUPct: g}
		mp, err := placement.PlaceModel(cand, m, qc)
		if err != nil {
			continue
		}
		if mp.TotalOn(placement.TierGPU) <= defaultGPUWeightBudget {
			return cand
		}
	}
	// Nothing fits: keep everything on the host.
	return placement.Baseline{DiskPct: 0, CPUPct: 100, GPUPct: 0}
}

// RunResult couples the schedule simulation with the placement and
// capacity analysis that produced it.
type RunResult struct {
	*sched.Result
	// Placement is the resolved weight placement.
	Placement *placement.ModelPlacement
	// GPUWeightBytes is the stored GPU-resident weight footprint.
	GPUWeightBytes units.Bytes
	// StagingBytes is the weight staging allocation.
	StagingBytes units.Bytes
	// MaxBatch is the largest batch the GPU budget admits under this
	// placement.
	MaxBatch int
}

// Run executes one configuration end to end: place weights, verify
// capacities, solve the batch budget and simulate the schedule.
func Run(rc RunConfig) (*RunResult, error) {
	rc = rc.Canonical()
	devs, err := rc.Memory.Devices()
	if err != nil {
		return nil, err
	}
	mp, err := placement.PlaceModel(rc.Policy, rc.Model, rc.Quantizer())
	if err != nil {
		return nil, err
	}

	// Host/storage capacity checks: the host tier spans both sockets.
	cpuBytes := mp.TotalOn(placement.TierCPU)
	if cap := devs.CPU.Capacity() * hostNodes; cpuBytes > cap {
		return nil, fmt.Errorf("core: %s cannot hold %v of host-tier weights (capacity %v): %s",
			devs.CPU.Name(), cpuBytes, cap, capacityHint(rc))
	}
	if diskBytes := mp.TotalOn(placement.TierDisk); diskBytes > 0 {
		if devs.Disk == nil {
			return nil, fmt.Errorf("core: policy %s spills %v to storage but %s has no storage tier",
				rc.Policy.Name(), diskBytes, rc.Memory)
		}
		if diskBytes > devs.Disk.Capacity() {
			return nil, fmt.Errorf("core: %s cannot hold %v of spilled weights", devs.Disk.Name(), diskBytes)
		}
	}

	// GPU budget: resident weights + double-buffered staging of the
	// largest off-GPU layer.
	gpuBytes, staging, maxBatch, err := solveBudget(rc, mp)
	if err != nil {
		return nil, err
	}
	if rc.Batch <= 0 {
		return nil, fmt.Errorf("core: non-positive batch %d", rc.Batch)
	}
	if rc.Batch > maxBatch {
		return nil, fmt.Errorf("core: batch %d exceeds the GPU budget's cap of %d for %s/%s (weights %v + staging %v on a %v GPU)",
			rc.Batch, maxBatch, rc.Model.Name, rc.Policy.Name(), gpuBytes, staging, kvcache.DefaultBudget(gpuBytes, staging).Capacity)
	}

	res, err := sched.Run(sched.Options{
		Model:     rc.Model,
		Placement: mp,
		Devices:   devs,
		GPU:       gpu.NewA100(),
		Engine:    xfer.New(),
		Batch:     rc.Batch,
		PromptLen: rc.PromptLen,
		GenLen:    rc.GenLen,
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Result:         res,
		Placement:      mp,
		GPUWeightBytes: gpuBytes,
		StagingBytes:   staging,
		MaxBatch:       maxBatch,
	}, nil
}

// capacityHint explains the paper's corresponding observation for common
// capacity failures.
func capacityHint(rc RunConfig) string {
	if rc.Memory == MemDRAM && !rc.Compress {
		return "uncompressed OPT-175B exceeds system DRAM; the paper has no DRAM configuration for it (§IV-B) — enable compression or use NVDRAM/MemoryMode/storage"
	}
	return "reduce the host percentage or enable compression"
}

// MaxBatchFor solves the batch cap for a configuration without running it.
func MaxBatchFor(rc RunConfig) (int, error) {
	rc = rc.Canonical()
	mp, err := placement.PlaceModel(rc.Policy, rc.Model, rc.Quantizer())
	if err != nil {
		return 0, err
	}
	_, _, maxBatch, err := solveBudget(rc, mp)
	return maxBatch, err
}
