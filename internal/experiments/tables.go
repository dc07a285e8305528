package experiments

import (
	"fmt"

	"helmsim/internal/calib"
	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/report"
	"helmsim/internal/runcache"
	"helmsim/internal/units"
)

func init() {
	register(Experiment{ID: "table1", Title: "Table I: system configuration", Run: runTable1})
	register(Experiment{ID: "table2", Title: "Table II: LLM model/memory configuration matrix", Run: runTable2})
	register(Experiment{ID: "table3", Title: "Table III: CXL configurations", Run: runTable3})
	register(Experiment{ID: "table4", Title: "Table IV: compute/communication overlap ratios across allocation policies", Run: runTable4})
}

// runTable1 prints the modeled platform (Table I plus the calibrated
// bandwidth anchors derived from Fig. 3).
func runTable1() ([]*report.Table, error) {
	t := &report.Table{Title: "Table I: simulated system configuration", Headers: []string{"component", "value"}}
	t.AddRow("CPU", "2x Intel Xeon Gold 6330 (Ice Lake), 28 cores/socket")
	t.AddRow("DRAM", fmt.Sprintf("%v per node, %v total (DDR4-2933, 8 ch, %v)",
		calib.DRAMCapacityPerNode, 2*calib.DRAMCapacityPerNode, calib.DRAMPeakLocal))
	t.AddRow("Optane", fmt.Sprintf("%v per node, %v total (200 series)",
		calib.OptaneCapacityPerNode, 2*calib.OptaneCapacityPerNode))
	t.AddRow("GPU", fmt.Sprintf("NVIDIA A100, %v HBM2 @ %v", units.Bytes(calib.GPUMemoryCapacity), calib.GPUHBMBandwidth))
	t.AddRow("PCIe", fmt.Sprintf("Gen4 x16, %v theoretical", calib.PCIeTheoretical))
	t.AddRow("host->GPU DRAM", calib.HostToGPUDRAM.String())
	t.AddRow("host->GPU Optane", fmt.Sprintf("%v (<=4 GB) .. %v (32 GB)", calib.HostToGPUOptaneSmall, calib.HostToGPUOptaneLarge))
	t.AddRow("GPU->host DRAM", calib.GPUToHostDRAM.String())
	t.AddRow("GPU->host Optane", fmt.Sprintf("peak %v (node 1) / %v (node 0)", calib.GPUToHostOptanePeakNode1, calib.GPUToHostOptanePeakNode0))
	return []*report.Table{t}, nil
}

// runTable2 prints the model/memory matrix with the per-configuration
// placement defaults and batch caps the engine derives.
func runTable2() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Table II: model/memory configurations (with engine-derived batch caps)",
		Headers: []string{"model", "memory", "storage tier", "host tier", "default policy", "max batch"},
	}
	rows := []struct {
		m   model.Config
		mem core.MemoryConfig
	}{
		{model.OPT30B(), core.MemDRAM},
		{model.OPT30B(), core.MemNVDRAM},
		{model.OPT30B(), core.MemMemoryMode},
		{model.OPT175B(), core.MemSSD},
		{model.OPT175B(), core.MemFSDAX},
		{model.OPT175B(), core.MemNVDRAM},
		{model.OPT175B(), core.MemMemoryMode},
	}
	for _, r := range rows {
		devs, err := r.mem.Devices()
		if err != nil {
			return nil, err
		}
		storage := "-"
		if devs.Disk != nil {
			storage = devs.Disk.Name()
		}
		pol := core.DefaultPolicy(r.m, r.mem, false)
		maxBatch, err := runcache.MaxBatchFor(core.RunConfig{Model: r.m, Memory: r.mem, Batch: 1})
		if err != nil {
			return nil, err
		}
		t.AddRow(r.m.Name, r.mem.String(), storage, devs.CPU.Name(), pol.Name(), maxBatch)
	}
	return []*report.Table{t}, nil
}

// runTable3 prints the CXL device configurations of the §V-D projection
// study. The projection method substitutes the expander's bandwidth for the
// host-memory bandwidth and re-derives weight-transfer times, overlap
// ratios, and end-to-end metrics.
//
// The paper scales its measured NVDIMM transfer times by the bandwidth
// ratio; the simulator instead re-runs the full engine with the CXL
// expander as the host tier (core.MemCXLFPGA / core.MemCXLASIC), which is
// the same computation carried through the schedule. Table IV's and
// Fig. 13's CXL columns come from those runs.
func runTable3() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Table III: CXL configurations",
		Headers: []string{"name", "memory technology", "bandwidth", "source"},
	}
	for _, c := range cxlConfigs() {
		t.AddRow(c.Name, c.MemTech, c.BW.String(), c.Source)
	}
	return []*report.Table{t}, nil
}

// cxlDevice is one row of Table III.
type cxlDevice struct {
	// Name is the paper's label.
	Name string
	// MemTech is the backing memory technology.
	MemTech string
	// BW is the published device bandwidth.
	BW units.Bandwidth
	// Source cites the measurement.
	Source string
}

// cxlConfigs returns Table III.
func cxlConfigs() []cxlDevice {
	return []cxlDevice{
		{Name: "CXL-FPGA", MemTech: "DDR4-3200 x1", BW: calib.CXLFPGABandwidth, Source: "Sun et al. [17] (CXL-C)"},
		{Name: "CXL-ASIC", MemTech: "DDR5-4800 x1", BW: calib.CXLASICBandwidth, Source: "Wang et al. [54] (System A)"},
	}
}

// runTable4 reproduces the full overlap-ratio grid: three allocation
// policies x batch sizes x stages x {NVDRAM, CXL-FPGA, CXL-ASIC}, all with
// compression.
func runTable4() ([]*report.Table, error) {
	t := &report.Table{
		Title: "Table IV: overlap of compute and communication (ratio; 1 = perfect overlap)",
		Headers: []string{"policy", "batch", "stage",
			"MHAc/FFNl NVDRAM", "MHAc/FFNl CXL-FPGA", "MHAc/FFNl CXL-ASIC",
			"FFNc/MHAl NVDRAM", "FFNc/MHAl CXL-FPGA", "FFNc/MHAl CXL-ASIC"},
	}
	mems := []core.MemoryConfig{core.MemNVDRAM, core.MemCXLFPGA, core.MemCXLASIC}
	cases := []struct {
		polName string
		pol     placement.Policy
		batch   int
	}{
		{"Baseline", nil, 1},
		{"Baseline", nil, 8},
		{"HeLM", helmPolicy(), 1},
		{"HeLM", helmPolicy(), 8},
		{"All-CPU", placement.AllCPU{}, 44},
	}
	for _, c := range cases {
		type ratios struct{ m, f float64 }
		var prefill, decode [3]ratios
		for i, mem := range mems {
			res, err := run(core.RunConfig{Model: model.OPT175B(), Memory: mem, Batch: c.batch, Compress: true, Policy: c.pol})
			if err != nil {
				return nil, err
			}
			pm, pf := res.Prefill.OverlapRatios()
			dm, df := res.Decode[len(res.Decode)-1].OverlapRatios()
			prefill[i] = ratios{pm, pf}
			decode[i] = ratios{dm, df}
		}
		t.AddRow(c.polName, c.batch, "prefill",
			f2(prefill[0].m), f2(prefill[1].m), f2(prefill[2].m),
			f2(prefill[0].f), f2(prefill[1].f), f2(prefill[2].f))
		t.AddRow(c.polName, c.batch, "decode",
			f2(decode[0].m), f2(decode[1].m), f2(decode[2].m),
			f2(decode[0].f), f2(decode[1].f), f2(decode[2].f))
	}
	return []*report.Table{t}, nil
}

// f2 formats a ratio with two decimals as Table IV prints them.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
