package experiments

import (
	"fmt"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/report"
	"helmsim/internal/serve"
)

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Fig. 4: TTFT, TBT and throughput for OPT-30B and OPT-175B across memory configurations",
		Run:   runFig4,
	})
}

// fig4Point is one bar of Fig. 4.
type fig4Point struct {
	model model.Config
	mem   core.MemoryConfig
	batch int
}

// runFig4 serves both models under every Table II configuration with the
// paper's batch sizes (1 and the per-model maximum: 32 for OPT-30B, 8 for
// OPT-175B) and the §III-B repeat-10 protocol.
func runFig4() ([]*report.Table, error) {
	var points []fig4Point
	for _, mem := range []core.MemoryConfig{core.MemDRAM, core.MemNVDRAM, core.MemMemoryMode} {
		for _, b := range []int{1, 32} {
			points = append(points, fig4Point{model.OPT30B(), mem, b})
		}
	}
	for _, mem := range []core.MemoryConfig{core.MemSSD, core.MemFSDAX, core.MemNVDRAM, core.MemMemoryMode} {
		for _, b := range []int{1, 8} {
			points = append(points, fig4Point{model.OPT175B(), mem, b})
		}
	}

	t := &report.Table{
		Title:   "Fig. 4: TTFT (s), TBT (s), throughput (tokens/s); means over repeated runs, first discarded (§III-C)",
		Headers: []string{"model", "memory", "batch", "TTFT(s)", "TBT(s)", "tok/s"},
	}
	for _, p := range points {
		m, err := serve.PaperProtocol(core.RunConfig{Model: p.model, Memory: p.mem, Batch: p.batch})
		if err != nil {
			return nil, fmt.Errorf("fig4 %s/%s b%d: %w", p.model.Name, p.mem, p.batch, err)
		}
		t.AddRow(p.model.Name, p.mem.String(), p.batch,
			fmt.Sprintf("%.3f", m.TTFT.Seconds()),
			fmt.Sprintf("%.3f", m.TBT.Seconds()),
			fmt.Sprintf("%.3f", m.Throughput))
	}
	return []*report.Table{t}, nil
}
