// Package experiments contains one runner per table and figure of the
// paper's evaluation (§IV-§V). Each runner executes the simulation stack
// and returns the same rows/series the paper reports, so `cmd/helmbench`
// and the repository benchmarks can regenerate every result. A tool model
// that only one figure consumes — the nvbandwidth sweep, the MLC matrix,
// Table III's CXL devices, the roofline classifier, the energy estimate —
// sits beside the runner that prints it. DESIGN.md carries the experiment
// index; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"sort"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/report"
	"helmsim/internal/runcache"
)

// Experiment is one reproducible result.
type Experiment struct {
	// ID is the short handle, e.g. "fig4" or "table4".
	ID string
	// Title describes the paper artifact.
	Title string
	// Run executes the experiment and renders its tables.
	Run func() ([]*report.Table, error)
}

// registry holds the experiments keyed by ID.
var registry = map[string]Experiment{}

// register adds an experiment at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment, ordered by ID group (figures first in
// numeric order, then tables, then claims).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey gives figures, tables and claims a stable presentation order.
func orderKey(id string) string {
	switch {
	case len(id) > 3 && id[:3] == "fig":
		return "0" + fmt.Sprintf("%06s", id[3:])
	case len(id) > 5 && id[:5] == "table":
		return "1" + fmt.Sprintf("%06s", id[5:])
	default:
		return "2" + id
	}
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try: %s)", id, ids())
	}
	return e, nil
}

// ids lists the registered IDs for error messages.
func ids() string {
	all := All()
	s := ""
	for i, e := range all {
		if i > 0 {
			s += ", "
		}
		s += e.ID
	}
	return s
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// ms renders a duration in milliseconds with sensible precision.
func ms(seconds float64) string { return fmt.Sprintf("%.2f", seconds*1e3) }

// run executes one engine configuration through the process-wide run
// cache — many runners revisit the same points, and concurrent runners
// singleflight onto one solve — wrapping errors with the experiment
// context. Results are shared: runners must treat them as read-only.
func run(rc core.RunConfig) (*core.RunResult, error) {
	res, err := runcache.Run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s/%s batch %d: %w", rc.Model.Name, rc.Memory, rc.Batch, err)
	}
	return res, nil
}

// helmPolicy builds the HeLM policy with the paper's default fallback for
// OPT-175B memory-only configurations.
func helmPolicy() placement.Policy {
	return placement.HeLM{Default: placement.Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20}}
}

// dramIdealConfig is the paper's "ideal all-DRAM system" reference for
// OPT-175B: the same architecture truncated to 8 decoder blocks so its
// host-resident weights fit DRAM (§IV-B: "running the model with 8 decoder
// blocks instead of the default 96").
func dramIdealConfig() model.Config {
	cfg := model.OPT175B()
	cfg.Name = "OPT-175B(8blk)"
	cfg.Blocks = 8
	return cfg
}

// dramIdealRun executes the DRAM-ideal reference with the full model's
// (0, 80, 20) placement so the per-layer host-resident bytes match the
// 96-block runs (the truncated model would otherwise pick the small-model
// default policy).
func dramIdealRun() (*core.RunResult, error) {
	return run(core.RunConfig{
		Model:  dramIdealConfig(),
		Memory: core.MemDRAM,
		Policy: placement.Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20},
		Batch:  1,
	})
}
