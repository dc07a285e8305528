package sched_test

import (
	"fmt"

	"helmsim/internal/gpu"
	"helmsim/internal/memdev"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/quant"
	"helmsim/internal/sched"
	"helmsim/internal/units"
	"helmsim/internal/xfer"
)

// ExampleRun_cxlSweep projects OPT-175B(c) at batch 1 onto synthetic CXL
// expanders across the published device spectrum (§V-D: 5.12 GB/s
// CXL-FPGA, past Optane, to 28 GB/s CXL-ASIC), baseline (0, 80, 20)
// against HeLM. HeLM's advantage holds across the spectrum and shrinks
// only once the link is fast enough that transfers hide behind compute.
func ExampleRun_cxlSweep() {
	cfg := model.OPT175B()
	qc := quant.Default()
	base := placement.Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20}
	tbt := func(pol placement.Policy, dev memdev.Device) float64 {
		mp, err := placement.PlaceModel(pol, cfg)
		if err != nil {
			panic(err)
		}
		res, err := sched.Run(sched.Options{
			Model: cfg, Placement: mp,
			Devices: sched.TierDevices{CPU: dev},
			GPU:     gpu.NewA100(), Engine: xfer.New(),
			Batch: 1, PromptLen: 128, GenLen: 21, Compression: &qc,
		})
		if err != nil {
			panic(err)
		}
		return res.TBT.Seconds()
	}
	for _, gbps := range []float64{4, 5.12, 8, 12, 16, 19.91, 24, 28, 32} {
		dev := memdev.NewCXL(fmt.Sprintf("CXL-%.0f", gbps), units.GBps(gbps), units.TiB)
		b, h := tbt(base, dev), tbt(placement.HeLM{Default: base}, dev)
		fmt.Printf("%5.2f GB/s: baseline %.3fs, HeLM %.3fs (%.1f%% better)\n", gbps, b, h, (1-h/b)*100)
	}
	// Output:
	//  4.00 GB/s: baseline 22.601s, HeLM 16.484s (27.1% better)
	//  5.12 GB/s: baseline 17.657s, HeLM 12.879s (27.1% better)
	//  8.00 GB/s: baseline 11.302s, HeLM 8.244s (27.1% better)
	// 12.00 GB/s: baseline 8.186s, HeLM 5.497s (32.9% better)
	// 16.00 GB/s: baseline 6.814s, HeLM 4.780s (29.8% better)
	// 19.91 GB/s: baseline 6.007s, HeLM 4.371s (27.2% better)
	// 24.00 GB/s: baseline 5.445s, HeLM 4.086s (25.0% better)
	// 28.00 GB/s: baseline 5.057s, HeLM 4.077s (19.4% better)
	// 32.00 GB/s: baseline 4.766s, HeLM 4.077s (14.5% better)
}
