package experiments

import (
	"fmt"

	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/quant"
	"helmsim/internal/report"
	"helmsim/internal/units"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Figs. 9-10: HeLM's weight distribution across host and GPU",
		Run:   runFig10,
	})
}

// runFig10 reports HeLM's achieved distribution at two granularities: per
// weight tensor (Fig. 9's breakdown, with uncompressed/compressed sizes)
// and per layer type (Fig. 10's bars).
func runFig10() ([]*report.Table, error) {
	cfg := model.OPT175B()
	mp, err := placement.PlaceModel(helmPolicy(), cfg, nil)
	if err != nil {
		return nil, err
	}
	qc := quant.Default()

	// Fig. 9: one decoder block's tensors, their sizes and destinations.
	perWeight := &report.Table{
		Title:   "Fig. 9: HeLM per-weight placement of one OPT-175B decoder block (uncompressed/compressed sizes)",
		Headers: []string{"layer", "weight", "raw", "compressed", "tier"},
	}
	seen := map[model.LayerType]bool{}
	for _, lp := range mp.Layers {
		if lp.Layer.Type != model.LayerMHA && lp.Layer.Type != model.LayerFFN {
			continue
		}
		if seen[lp.Layer.Type] {
			continue
		}
		seen[lp.Layer.Type] = true
		for _, a := range lp.Assignments {
			perWeight.AddRow(lp.Layer.Type.String(), a.Spec.Name,
				a.Spec.Bytes.String(), qc.CompressedBytes(a.Spec.Elems).String(), a.Tier.String())
		}
	}

	// Fig. 10: distribution by layer type, plus the paper's observation
	// that only ~33% of total weights sit on the GPU (§V-C).
	perType := &report.Table{
		Title:   "Fig. 10: HeLM achieved weight distribution",
		Headers: []string{"scope", "host %", "GPU %"},
	}
	for _, lt := range []model.LayerType{model.LayerMHA, model.LayerFFN} {
		d := mp.DistributionByType(lt)
		perType.AddRow(lt.String(), fmt.Sprintf("%.1f", d.CPUPct), fmt.Sprintf("%.1f", d.GPUPct))
	}
	overall := mp.AchievedDistribution()
	perType.AddRow("overall", fmt.Sprintf("%.1f", overall.CPUPct), fmt.Sprintf("%.1f", overall.GPUPct))

	gpuBytes := mp.TotalOn(placement.TierGPU)
	perType.AddRow("GPU bytes (raw)", "", fmt.Sprintf("%.1f GiB", float64(gpuBytes)/float64(units.GiB)))

	return []*report.Table{perWeight, perType}, nil
}
