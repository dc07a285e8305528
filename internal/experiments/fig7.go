package experiments

import (
	"fmt"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/report"
)

func init() {
	register(Experiment{
		ID:    "fig7a",
		Title: "Fig. 7a: per-layer weight load latency for the first 70 OPT-175B layers (compressed)",
		Run:   runFig7a,
	})
	register(Experiment{
		ID:    "fig7bc",
		Title: "Fig. 7b/7c: MHA/FFN weight distribution under the baseline allocator",
		Run:   runFig7bc,
	})
}

// runFig7a regenerates the sawtooth: the per-layer load series under every
// compressed configuration, truncated at layer 70 as the paper plots it.
func runFig7a() ([]*report.Table, error) {
	const maxLayer = 70
	t := &report.Table{
		Title:   "Fig. 7a: per-layer weight load latency (ms), OPT-175B compressed, layers 0-69",
		Headers: []string{"layer", "type"},
	}
	var cols [][]float64
	var types []model.LayerType
	for _, mem := range []core.MemoryConfig{core.MemSSD, core.MemFSDAX, core.MemNVDRAM, core.MemMemoryMode} {
		res, err := run(core.RunConfig{Model: model.OPT175B(), Memory: mem, Batch: 1, Compress: true})
		if err != nil {
			return nil, err
		}
		t.Headers = append(t.Headers, mem.String()+" (ms)")
		col := make([]float64, 0, maxLayer)
		for i, lt := range res.Prefill.Layers {
			if i >= maxLayer {
				break
			}
			col = append(col, lt.Load.Seconds()*1e3)
			if len(cols) == 0 {
				types = append(types, lt.Type)
			}
		}
		cols = append(cols, col)
	}
	for i := 0; i < maxLayer; i++ {
		row := []any{i, types[i].String()}
		for _, col := range cols {
			row = append(row, fmt.Sprintf("%.2f", col[i]))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}

// runFig7bc reports the achieved MHA and FFN weight distributions under the
// two baseline configurations: (65,15,20) for SSD/FSDAX and (0,80,20) for
// NVDRAM/MemoryMode.
func runFig7bc() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Fig. 7b/7c: achieved weight distribution (storage, host, GPU) %",
		Headers: []string{"requested", "layer type", "storage %", "host %", "GPU %"},
	}
	for _, req := range []placement.Baseline{
		{DiskPct: 65, CPUPct: 15, GPUPct: 20}, // SSD/FSDAX
		{DiskPct: 0, CPUPct: 80, GPUPct: 20},  // NVDRAM/MemoryMode
	} {
		mp, err := placement.PlaceModel(req, model.OPT175B(), nil)
		if err != nil {
			return nil, err
		}
		for _, lt := range []model.LayerType{model.LayerMHA, model.LayerFFN} {
			d := mp.DistributionByType(lt)
			t.AddRow(fmt.Sprintf("(%g,%g,%g)", req.DiskPct, req.CPUPct, req.GPUPct),
				lt.String(),
				fmt.Sprintf("%.1f", d.DiskPct), fmt.Sprintf("%.1f", d.CPUPct), fmt.Sprintf("%.1f", d.GPUPct))
		}
		overall := mp.AchievedDistribution()
		t.AddRow(fmt.Sprintf("(%g,%g,%g)", req.DiskPct, req.CPUPct, req.GPUPct), "overall",
			fmt.Sprintf("%.1f", overall.DiskPct), fmt.Sprintf("%.1f", overall.CPUPct), fmt.Sprintf("%.1f", overall.GPUPct))
	}
	return []*report.Table{t}, nil
}
