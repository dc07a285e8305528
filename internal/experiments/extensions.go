package experiments

import (
	"fmt"

	"helmsim/internal/autotune"
	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/report"
	"helmsim/internal/stats"
	"helmsim/internal/units"
)

func init() {
	register(Experiment{
		ID:    "balance",
		Title: "Extension (§VII future work): automatic compute-aware placement vs the paper's schemes",
		Run:   runBalance,
	})
	register(Experiment{
		ID:    "pareto",
		Title: "Extension (§VII future work): QoS-driven latency/throughput Pareto front",
		Run:   runPareto,
	})
}

// runBalance evaluates the autotuner's Balance placement against FlexGen's
// baseline, HeLM and All-CPU, at several GPU budgets.
func runBalance() ([]*report.Table, error) {
	rc := core.RunConfig{Model: model.OPT175B(), Memory: core.MemNVDRAM, Batch: 1, Compress: true}

	t := &report.Table{
		Title:   "Balance vs paper schemes: OPT-175B(c) on NVDRAM, batch 1",
		Headers: []string{"policy", "GPU weights", "TTFT(s)", "TBT(s)", "TBT vs baseline (%)"},
	}
	base, err := run(rc)
	if err != nil {
		return nil, err
	}
	row := func(name string, res *core.RunResult) {
		t.AddRow(name, res.GPUWeightBytes.String(),
			fmt.Sprintf("%.3f", res.TTFT.Seconds()),
			fmt.Sprintf("%.3f", res.TBT.Seconds()),
			fmt.Sprintf("%+.1f", stats.PctChange(base.TBT.Seconds(), res.TBT.Seconds())))
	}
	row("baseline(0,80,20)", base)

	helmRC := rc
	helmRC.Policy = helmPolicy()
	helmRes, err := run(helmRC)
	if err != nil {
		return nil, err
	}
	row("helm", helmRes)

	for _, budget := range []units.Bytes{10 * units.GB, 20 * units.GB, 30 * units.GB} {
		pol, err := autotune.Balance(rc, budget)
		if err != nil {
			return nil, err
		}
		brc := rc
		brc.Policy = pol
		res, err := run(brc)
		if err != nil {
			return nil, err
		}
		row(pol.Name(), res)
	}

	allRC := rc
	allRC.Policy = placement.AllCPU{}
	allRes, err := run(allRC)
	if err != nil {
		return nil, err
	}
	row("all-cpu", allRes)
	return []*report.Table{t}, nil
}

// runPareto runs the QoS autotuner for max throughput under a TBT bound
// and prints the latency/throughput Pareto front of all trials.
func runPareto() ([]*report.Table, error) {
	res, err := autotune.Tune(autotune.Request{
		Model: model.OPT175B(), Memory: core.MemNVDRAM, Compress: true,
		Objective: autotune.MaxThroughputUnderTBT,
		TBTBound:  units.Duration(6.5),
	})
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Pareto front of all tuner trials (OPT-175B(c), NVDRAM); * = winner under TBT <= 6.5s",
		Headers: []string{"policy", "batch", "TTFT(s)", "TBT(s)", "tok/s", ""},
	}
	for _, tr := range autotune.ParetoFront(res.Trials) {
		mark := ""
		if res.Best != nil && tr.PolicyName == res.Best.PolicyName && tr.Batch == res.Best.Batch {
			mark = "*"
		}
		t.AddRow(tr.PolicyName, tr.Batch,
			fmt.Sprintf("%.3f", tr.TTFT.Seconds()),
			fmt.Sprintf("%.3f", tr.TBT.Seconds()),
			fmt.Sprintf("%.3f", tr.Throughput), mark)
	}
	return []*report.Table{t}, nil
}
