package experiments

import (
	"fmt"

	"helmsim/internal/core"
	"helmsim/internal/gpu"
	"helmsim/internal/memdev"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/quant"
	"helmsim/internal/report"
	"helmsim/internal/sched"
	"helmsim/internal/units"
	"helmsim/internal/xfer"
)

func init() {
	register(Experiment{
		ID:    "ablation-dequant",
		Title: "Ablation: dequantization kernel bandwidth vs HeLM's benefit (DESIGN.md cost-model choice)",
		Run:   runAblationDequant,
	})
	register(Experiment{
		ID:    "ablation-helm-pct",
		Title: "Ablation: HeLM's FFN GPU percentage sensitivity around the published 30%",
		Run:   runAblationHeLMPct,
	})
	register(Experiment{
		ID:    "ablation-kvoffload",
		Title: "Ablation: KV cache offloaded to host memory (FlexGen's KV offload mode)",
		Run:   runAblationKVOffload,
	})
	register(Experiment{
		ID:    "ablation-batch",
		Title: "Ablation: throughput scaling in batch size across policies",
		Run:   runAblationBatch,
	})
}

// schedRun executes the scheduler directly with a customized GPU model or
// options — the ablation entry point below core's fixed configuration.
func schedRun(cfg model.Config, pol placement.Policy, dev memdev.Device, g *gpu.GPU, batch int, kvOnHost bool) (*sched.Result, error) {
	qc := quant.Default()
	mp, err := placement.PlaceModel(pol, cfg, &qc)
	if err != nil {
		return nil, err
	}
	return sched.Run(sched.Options{
		Model: cfg, Placement: mp,
		Devices: sched.TierDevices{CPU: dev},
		GPU:     g, Engine: xfer.New(),
		Batch: batch, PromptLen: 128, GenLen: 21,
		KVOnHost: kvOnHost,
	})
}

// runAblationDequant sweeps the dequantization kernel's bandwidth. The
// calibrated 26 GB/s makes decode compute dequant-dominated (the Table IV
// signature); a fused kernel (faster dequant) would shrink compute and
// shift more weight onto the transfer bottleneck, growing HeLM's relative
// benefit until transfers dominate outright.
func runAblationDequant() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Dequant bandwidth sweep, OPT-175B(c) NVDRAM batch 1",
		Headers: []string{"dequant GB/s", "baseline TBT(s)", "HeLM TBT(s)", "HeLM gain (%)"},
	}
	cfg := model.OPT175B()
	dev := memdev.NewOptane(0)
	for _, gbps := range []float64{13, 26, 52, 104, 1e6} {
		g := gpu.NewA100()
		g.Dequant = units.GBps(gbps)
		base, err := schedRun(cfg, placement.Baseline{CPUPct: 80, GPUPct: 20}, dev, g, 1, false)
		if err != nil {
			return nil, err
		}
		helm, err := schedRun(cfg, placement.HeLM{Default: placement.Baseline{CPUPct: 80, GPUPct: 20}}, dev, g, 1, false)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.0f", gbps)
		if gbps >= 1e6 {
			label = "free (fused)"
		}
		t.AddRow(label,
			fmt.Sprintf("%.3f", base.TBT.Seconds()),
			fmt.Sprintf("%.3f", helm.TBT.Seconds()),
			fmt.Sprintf("%.1f", (1-helm.TBT.Seconds()/base.TBT.Seconds())*100))
	}
	return []*report.Table{t}, nil
}

// runAblationHeLMPct sweeps the FFN GPU percentage around HeLM's published
// 30% (which lands fc1 on the GPU). The cliff structure shows why the
// paper's value works: below ~25% fc1 stays on the host (no benefit), and
// values up to 75% change nothing more until fc2 also fits.
func runAblationHeLMPct() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "HeLM FFN GPU%% sweep, OPT-175B(c) NVDRAM batch 1 (published value: 30)",
		Headers: []string{"ffn gpu %", "FFN gpu share (%)", "TBT(s)", "vs baseline (%)"},
	}
	cfg := model.OPT175B()
	dev := memdev.NewOptane(0)
	base, err := schedRun(cfg, placement.Baseline{CPUPct: 80, GPUPct: 20}, dev, gpu.NewA100(), 1, false)
	if err != nil {
		return nil, err
	}
	for _, pct := range []float64{10, 20, 25, 30, 50, 75, 80} {
		pol := helmVariant{ffnGPUPct: pct}
		mp, err := placement.PlaceModel(pol, cfg, nil)
		if err != nil {
			return nil, err
		}
		share := mp.DistributionByType(model.LayerFFN).GPUPct
		res, err := schedRun(cfg, pol, dev, gpu.NewA100(), 1, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", pct),
			fmt.Sprintf("%.1f", share),
			fmt.Sprintf("%.3f", res.TBT.Seconds()),
			fmt.Sprintf("%+.1f", (res.TBT.Seconds()/base.TBT.Seconds()-1)*100))
	}
	return []*report.Table{t}, nil
}

// helmVariant is HeLM with a configurable FFN GPU percentage.
type helmVariant struct {
	ffnGPUPct float64
}

// Name implements placement.Policy.
func (h helmVariant) Name() string { return fmt.Sprintf("helm-ffn%.0f", h.ffnGPUPct) }

// PlaceLayer implements placement.Policy by delegating to HeLM for
// everything except the FFN percentage.
func (h helmVariant) PlaceLayer(l model.Layer) ([]placement.Assignment, error) {
	if l.Type != model.LayerFFN {
		return placement.HeLM{Default: placement.Baseline{CPUPct: 80, GPUPct: 20}}.PlaceLayer(l)
	}
	// Re-run HeLM's FFN path with a custom split: sorted specs, (gpu,
	// cpu) percents.
	tmp := placement.HeLM{Default: placement.Baseline{CPUPct: 100 - h.ffnGPUPct, GPUPct: h.ffnGPUPct}}
	fake := l
	fake.Type = model.LayerInputEmbed // route through the default branch
	as, err := tmp.PlaceLayer(fake)
	if err != nil {
		return nil, err
	}
	return as, nil
}

// runAblationKVOffload quantifies FlexGen's KV-offload mode: with the cache
// on the host, decode pays the cache stream every step, and the cost grows
// with batch — the reason the paper keeps KV on the GPU and why All-CPU's
// batch-44 win needs the GPU free for the cache rather than spilling it.
func runAblationKVOffload() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "KV cache placement, OPT-175B(c) All-CPU weights on NVDRAM",
		Headers: []string{"batch", "KV on", "TBT(s)", "tok/s", "TBT penalty (%)"},
	}
	cfg := model.OPT175B()
	dev := memdev.NewOptane(0)
	for _, b := range []int{1, 8, 44} {
		onGPU, err := schedRun(cfg, placement.AllCPU{}, dev, gpu.NewA100(), b, false)
		if err != nil {
			return nil, err
		}
		onHost, err := schedRun(cfg, placement.AllCPU{}, dev, gpu.NewA100(), b, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(b, "GPU", fmt.Sprintf("%.3f", onGPU.TBT.Seconds()), fmt.Sprintf("%.3f", onGPU.Throughput), "-")
		t.AddRow(b, "host", fmt.Sprintf("%.3f", onHost.TBT.Seconds()), fmt.Sprintf("%.3f", onHost.Throughput),
			fmt.Sprintf("%+.1f", (onHost.TBT.Seconds()/onGPU.TBT.Seconds()-1)*100))
	}
	return []*report.Table{t}, nil
}

// runAblationBatch sweeps batch size for the three policies, exposing the
// throughput crossover structure behind Figs. 4 and 12.
func runAblationBatch() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Throughput (tok/s) vs batch, OPT-175B(c) NVDRAM",
		Headers: []string{"batch", "baseline", "HeLM", "All-CPU"},
	}
	pols := []placement.Policy{nil, helmPolicy(), placement.AllCPU{}}
	for _, b := range []int{1, 2, 4, 8, 16, 32, 44} {
		row := []any{b}
		for _, pol := range pols {
			rc := core.RunConfig{Model: model.OPT175B(), Memory: core.MemNVDRAM, Policy: pol, Batch: b, Compress: true}
			res, err := core.Run(rc)
			if err != nil {
				row = append(row, "over budget")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", res.Throughput))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}
