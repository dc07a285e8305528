package experiments

import (
	"fmt"

	"helmsim/internal/calib"
	"helmsim/internal/core"
	"helmsim/internal/memdev"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/report"
	"helmsim/internal/sched"
	"helmsim/internal/units"
)

func init() {
	register(Experiment{
		ID:    "energy",
		Title: "Extension (abstract): energy per token across memory configurations",
		Run:   runEnergy,
	})
}

// runEnergy estimates the energy cost of simulated serving runs — the
// quantity behind the paper's closing argument that "careful data
// placement can effectively enable the substitution of DRAM with
// high-capacity but slower memory, improving overall system energy
// efficiency" (abstract). It reports energy per generated token for the
// HeLM latency setup and the All-CPU throughput setup across DRAM, NVDRAM
// and MemoryMode.
//
// The model (estimateEnergy) is a first-order decomposition: dynamic
// energy per byte moved (memory media + PCIe link), GPU busy/idle power
// over the pipeline's compute and stall time, and standby power of the
// host memory actually provisioned for the working set. Constants live in
// internal/calib with their provenance.
func runEnergy() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Energy per token, OPT-175B(c): media+link transfer, GPU, host standby, platform base",
		Headers: []string{"config", "policy", "batch", "J/token", "transfer J", "GPU J", "standby J", "tok/s"},
	}
	cases := []struct {
		mem   core.MemoryConfig
		pol   placement.Policy
		name  string
		batch int
	}{
		{core.MemDRAM, helmPolicy(), "HeLM", 1},
		{core.MemNVDRAM, helmPolicy(), "HeLM", 1},
		{core.MemMemoryMode, helmPolicy(), "HeLM", 1},
		{core.MemDRAM, placement.AllCPU{}, "All-CPU", 44},
		{core.MemNVDRAM, placement.AllCPU{}, "All-CPU", 44},
		{core.MemMemoryMode, placement.AllCPU{}, "All-CPU", 44},
	}
	for _, c := range cases {
		rc := core.RunConfig{Model: model.OPT175B(), Memory: c.mem, Policy: c.pol, Batch: c.batch, Compress: true}
		res, err := run(rc)
		if err != nil {
			return nil, err
		}
		b, err := estimateEnergy(rc, res)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.mem.String(), c.name, c.batch,
			fmt.Sprintf("%.1f", b.PerTokenJ),
			fmt.Sprintf("%.1f", b.TransferJ),
			fmt.Sprintf("%.1f", b.GPUJ),
			fmt.Sprintf("%.1f", b.HostStandbyJ),
			fmt.Sprintf("%.3f", res.Throughput))
	}
	return []*report.Table{t}, nil
}

// energyBreakdown decomposes a run's energy.
type energyBreakdown struct {
	// TransferJ is media + link energy for all host<->GPU weight traffic.
	TransferJ float64
	// GPUJ is the accelerator's busy + idle energy over the run.
	GPUJ float64
	// HostStandbyJ is the standby energy of the provisioned host memory.
	HostStandbyJ float64
	// HostBaseJ is the platform base energy.
	HostBaseJ float64
	// TotalJ sums the components.
	TotalJ float64
	// PerTokenJ is TotalJ divided by generated tokens.
	PerTokenJ float64
	// TokensPerJoule is the inverse efficiency metric.
	TokensPerJoule float64
}

// perByteRead returns the dynamic read energy of a device's media plus the
// PCIe hop.
func perByteRead(kind memdev.Kind) float64 {
	link := calib.EnergyPCIePerByte
	switch kind {
	case memdev.KindDRAM:
		return calib.EnergyDRAMReadPerByte + link
	case memdev.KindOptane, memdev.KindMemoryMode:
		return calib.EnergyOptaneReadPerByte + link
	case memdev.KindFSDAX:
		// DAX read plus the DRAM bounce buffer's write+read.
		return calib.EnergyOptaneReadPerByte + calib.EnergyDRAMWritePerByte + calib.EnergyDRAMReadPerByte + link
	case memdev.KindSSD:
		return calib.EnergySSDPerByte + calib.EnergyDRAMWritePerByte + calib.EnergyDRAMReadPerByte + link
	case memdev.KindCXL:
		return calib.EnergyCXLPerByte + link
	default:
		return calib.EnergyDRAMReadPerByte + link
	}
}

// standbyPerGiB returns the provisioned-capacity standby power of the host
// tier.
func standbyPerGiB(kind memdev.Kind) float64 {
	switch kind {
	case memdev.KindDRAM, memdev.KindSSD, memdev.KindFSDAX:
		// SSD/FSDAX configurations still run DRAM as main memory.
		return calib.PowerDRAMStandbyPerGiB
	case memdev.KindOptane:
		return calib.PowerOptaneStandbyPerGiB
	case memdev.KindMemoryMode:
		// Optane array plus the DRAM acting as its cache.
		return calib.PowerOptaneStandbyPerGiB + calib.PowerDRAMStandbyPerGiB/4
	case memdev.KindCXL:
		return calib.PowerDRAMStandbyPerGiB / 2 // one DDR channel behind CXL
	default:
		return calib.PowerDRAMStandbyPerGiB
	}
}

// estimateEnergy computes the energy breakdown of a completed run.
func estimateEnergy(rc core.RunConfig, res *core.RunResult) (energyBreakdown, error) {
	if res == nil || res.Result == nil {
		return energyBreakdown{}, fmt.Errorf("energy: nil result")
	}
	devs, err := rc.Memory.Devices()
	if err != nil {
		return energyBreakdown{}, err
	}

	// Bytes streamed per pass: everything not GPU-resident.
	sizer := placement.SizerFor(rc.Quantizer())
	cpuBytes := res.Placement.TotalOn(placement.TierCPU, sizer)
	diskBytes := res.Placement.TotalOn(placement.TierDisk, sizer)
	passes := 1 + len(res.Decode)
	var transferJ float64
	transferJ += float64(cpuBytes) * float64(passes) * perByteRead(devs.CPU.Kind())
	if devs.Disk != nil {
		transferJ += float64(diskBytes) * float64(passes) * perByteRead(devs.Disk.Kind())
	}

	// GPU busy time = sum of compute over all passes; the rest of the run
	// it idles at stall power.
	var busy units.Duration
	addBusy := func(s sched.StepTiming) {
		for _, lt := range s.Layers {
			busy += lt.Compute
		}
	}
	addBusy(res.Prefill)
	for _, d := range res.Decode {
		addBusy(d)
	}
	total := res.TotalTime
	idle := total - busy
	if idle < 0 {
		idle = 0
	}
	gpuJ := busy.Seconds()*calib.PowerGPUBusy + idle.Seconds()*calib.PowerGPUIdle

	// Standby power of the host memory provisioned for the weights (the
	// capacity argument: Optane provisions the same bytes at far lower
	// standby power than an all-DRAM system would need).
	provisionedGiB := float64(cpuBytes) / float64(units.GiB)
	hostStandbyJ := provisionedGiB * standbyPerGiB(devs.CPU.Kind()) * total.Seconds()
	hostBaseJ := calib.PowerHostBase * total.Seconds()

	tokens := float64(res.Batch * (1 + len(res.Decode)))
	b := energyBreakdown{
		TransferJ:    transferJ,
		GPUJ:         gpuJ,
		HostStandbyJ: hostStandbyJ,
		HostBaseJ:    hostBaseJ,
	}
	b.TotalJ = b.TransferJ + b.GPUJ + b.HostStandbyJ + b.HostBaseJ
	if tokens > 0 {
		b.PerTokenJ = b.TotalJ / tokens
	}
	if b.TotalJ > 0 {
		b.TokensPerJoule = tokens / b.TotalJ
	}
	return b, nil
}
