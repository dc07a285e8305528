package experiments

import (
	"fmt"

	"helmsim/internal/gpu"
	"helmsim/internal/memdev"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/quant"
	"helmsim/internal/report"
	"helmsim/internal/sched"
	"helmsim/internal/xfer"
)

func init() {
	register(Experiment{
		ID:    "ablation-microbatch",
		Title: "Ablation: FlexGen's micro-batch weight reuse (zig-zag schedule, §II-B)",
		Run:   runAblationMicroBatch,
	})
}

// runAblationMicroBatch sweeps the micro-batch count for a fixed
// per-micro-batch size, showing how one weight load amortizes over more
// prompts until compute (or host-side KV swapping) takes over — the weight
// reuse FlexGen's zig-zag schedule was designed for.
func runAblationMicroBatch() ([]*report.Table, error) {
	cfg := model.OPT175B()
	dev := memdev.NewOptane(0)
	t := &report.Table{
		Title:   "Micro-batch sweep, OPT-175B All-CPU on NVDRAM (per-micro-batch size 2, KV on host)",
		Headers: []string{"micro-batches", "effective batch", "compressed", "TBT(s)", "tok/s", "gain vs nb=1 (x)"},
	}
	compressed := quant.Default()
	for _, qc := range []*quant.Config{nil, &compressed} {
		mp, err := placement.PlaceModel(placement.AllCPU{}, cfg, qc)
		if err != nil {
			return nil, err
		}
		var base float64
		for _, nb := range []int{1, 2, 4, 8, 16} {
			o := sched.Options{
				Model: cfg, Placement: mp,
				Devices: sched.TierDevices{CPU: dev},
				GPU:     gpu.NewA100(), Engine: xfer.New(),
				Batch: 2, PromptLen: 128, GenLen: 21,
				GPUBatches: nb, KVOnHost: true,
			}
			res, err := sched.Run(o)
			if err != nil {
				return nil, err
			}
			if nb == 1 {
				base = res.Throughput
			}
			t.AddRow(nb, 2*nb, qc != nil,
				fmt.Sprintf("%.3f", res.TBT.Seconds()),
				fmt.Sprintf("%.3f", res.Throughput),
				fmt.Sprintf("%.2f", res.Throughput/base))
		}
	}
	return []*report.Table{t}, nil
}
