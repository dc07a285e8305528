package experiments

import (
	"fmt"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/report"
	"helmsim/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig12",
		Title: "Fig. 12: All-CPU weight allocation on OPT-175B (compressed)",
		Run:   runFig12,
	})
}

// runFig12 compares the baseline allocator against All-CPU across batch
// sizes 1, 8 and 44 — 44 being admissible only without GPU-resident
// weights — on NVDRAM, MemoryMode and DRAM (§V-C).
func runFig12() ([]*report.Table, error) {
	metricsT := &report.Table{
		Title:   "Fig. 12a-c: TTFT, TBT and throughput, OPT-175B(c)",
		Headers: []string{"config", "policy", "batch", "TTFT(s)", "TBT(s)", "tok/s"},
	}
	overlapT := &report.Table{
		Title:   "Fig. 12d/12e: overlap, baseline b8 vs All-CPU b44",
		Headers: []string{"config", "policy+batch", "MHA comp (ms)", "FFN load (ms)", "FFN comp (ms)", "MHA load (ms)"},
	}

	type key struct {
		mem    core.MemoryConfig
		allCPU bool
		batch  int
	}
	results := map[key]*core.RunResult{}
	mems := []core.MemoryConfig{core.MemNVDRAM, core.MemMemoryMode, core.MemDRAM}
	for _, mem := range mems {
		for _, allCPU := range []bool{false, true} {
			for _, b := range []int{1, 8, 44} {
				rc := core.RunConfig{Model: model.OPT175B(), Memory: mem, Batch: b, Compress: true}
				polName := "baseline"
				if allCPU {
					rc.Policy = placement.AllCPU{}
					polName = "All-CPU"
				}
				res, err := core.Run(rc)
				if err != nil {
					if b == 44 && !allCPU {
						// §V-C: batch 44 "is only possible with All-CPU".
						metricsT.AddRow(mem.String(), polName, b, "over GPU budget", "-", "-")
						continue
					}
					return nil, fmt.Errorf("fig12 %s/%s b%d: %w", mem, polName, b, err)
				}
				results[key{mem, allCPU, b}] = res
				metricsT.AddRow(mem.String(), polName, b,
					fmt.Sprintf("%.3f", res.TTFT.Seconds()),
					fmt.Sprintf("%.3f", res.TBT.Seconds()),
					fmt.Sprintf("%.3f", res.Throughput))
			}
		}
	}

	for _, mem := range mems {
		if r := results[key{mem, false, 8}]; r != nil {
			pairRow2(overlapT, mem.String(), "baseline b8 prefill", r.Prefill)
			pairRow2(overlapT, mem.String(), "baseline b8 decode", r.Decode[len(r.Decode)-1])
		}
		if r := results[key{mem, true, 44}]; r != nil {
			pairRow2(overlapT, mem.String(), "All-CPU b44 prefill", r.Prefill)
			pairRow2(overlapT, mem.String(), "All-CPU b44 decode", r.Decode[len(r.Decode)-1])
		}
	}

	derived := &report.Table{
		Title:   "Fig. 12 derived: §V-C claims",
		Headers: []string{"claim", "paper", "measured"},
	}
	nvBase8 := results[key{core.MemNVDRAM, false, 8}]
	nvAll8 := results[key{core.MemNVDRAM, true, 8}]
	nvAll44 := results[key{core.MemNVDRAM, true, 44}]
	dramAll44 := results[key{core.MemDRAM, true, 44}]
	mmAll44 := results[key{core.MemMemoryMode, true, 44}]
	derived.AddRow("All-CPU vs baseline TBT at b8 (NVDRAM)", "~+1%",
		fmt.Sprintf("%+.2f%%", stats.PctChange(nvBase8.TBT.Seconds(), nvAll8.TBT.Seconds())))
	derived.AddRow("All-CPU b44 vs baseline b8 throughput (NVDRAM)", "~5x",
		fmt.Sprintf("%.2fx", nvAll44.Throughput/nvBase8.Throughput))
	derived.AddRow("All-CPU NVDRAM b44 vs All-CPU DRAM b44 throughput", "within 6%",
		fmt.Sprintf("%+.2f%%", stats.PctChange(dramAll44.Throughput, nvAll44.Throughput)))
	derived.AddRow("All-CPU MM b44 vs All-CPU NVDRAM b44 throughput", "+7.57%",
		fmt.Sprintf("%+.2f%%", stats.PctChange(nvAll44.Throughput, mmAll44.Throughput)))
	return []*report.Table{metricsT, overlapT, derived}, nil
}
