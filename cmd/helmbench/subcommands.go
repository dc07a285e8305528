package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"helmsim/internal/autotune"
	"helmsim/internal/core"
	"helmsim/internal/gpu"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/report"
	"helmsim/internal/sched"
	"helmsim/internal/serve"
	"helmsim/internal/trace"
	"helmsim/internal/units"
	"helmsim/internal/xfer"
)

// target registers the -model and -mem flags of every subcommand,
// resolved as they parse, and returns the configuration they fill.
func target(fs *flag.FlagSet) *core.RunConfig {
	rc := &core.RunConfig{Model: model.OPT175B(), Memory: core.MemNVDRAM}
	fs.Func("model", "model name, OPT-1.3B ... OPT-175B (default OPT-175B)", func(s string) (err error) {
		rc.Model, err = model.ByName(s)
		return err
	})
	fs.Func("mem", "memory config: DRAM, NVDRAM, MemoryMode, SSD, FSDAX, CXL-FPGA, CXL-ASIC (default NVDRAM)", func(s string) (err error) {
		rc.Memory, err = core.ParseMemoryConfig(s)
		return err
	})
	return rc
}

// policyFlag is the -policy flag: a placement by name. HeLM falls back
// to the paper's (0, 80, 20) split for the embedding layers, whatever
// the memory configuration; "baseline" is nil, the model/memory
// default.
type policyFlag struct {
	name string
	pol  placement.Policy
}

func (p *policyFlag) String() string { return p.name }

func (p *policyFlag) Set(s string) error {
	switch s {
	case "baseline":
		p.pol = nil
	case "helm":
		p.pol = placement.HeLM{Default: placement.Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20}}
	case "all-cpu":
		p.pol = placement.AllCPU{}
	case "all-gpu":
		p.pol = placement.AllGPU{}
	default:
		return fmt.Errorf("unknown policy %q", s)
	}
	p.name = s
	return nil
}

const policyUsage = "placement policy: baseline, helm, all-cpu, all-gpu"

// simCommand runs one configuration and prints the paper's three
// metrics (TTFT, TBT, throughput) with the compute/communication
// overlap analysis.
func simCommand(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rc := target(fs)
	pol := &policyFlag{name: "baseline"}
	fs.Var(pol, "policy", policyUsage)
	fs.IntVar(&rc.Batch, "batch", 1, "batch size")
	fs.BoolVar(&rc.Compress, "compress", false, "4-bit group-wise weight quantization")
	fs.IntVar(&rc.PromptLen, "prompt", 0, "prompt length (default 128)")
	fs.IntVar(&rc.GenLen, "gen", 0, "generated tokens (default 21)")
	traceOut := fs.String("trace", "", "write a Chrome trace (chrome://tracing) of the pipeline to this file")
	return func(stdout, _ io.Writer) error {
		rc.Policy = pol.pol
		res, err := core.Run(*rc)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s on %s, policy %s, batch %d, compress=%v\n",
			rc.Model.Name, rc.Memory, res.Placement.PolicyName, rc.Batch, rc.Compress)
		fmt.Fprintf(stdout, "  placement achieved (disk, cpu, gpu): %v\n", res.Placement.AchievedDistribution())
		fmt.Fprintf(stdout, "  GPU weights: %v, staging: %v, max batch: %d\n", res.GPUWeightBytes, res.StagingBytes, res.MaxBatch)
		fmt.Fprintf(stdout, "  TTFT: %v   TBT: %v   throughput: %.3f tok/s\n", res.TTFT, res.TBT, res.Throughput)
		fmt.Fprintf(stdout, "  prefill: avg load %v, avg compute %v\n", res.Prefill.AvgLoad(), res.Prefill.AvgCompute())
		if len(res.Decode) > 0 {
			d := res.Decode[len(res.Decode)-1]
			fmt.Fprintf(stdout, "  decode:  avg load %v, avg compute %v\n", d.AvgLoad(), d.AvgCompute())
			m, f := d.OverlapRatios()
			fmt.Fprintf(stdout, "  decode overlap: MHA compute/FFN load %.2f, FFN compute/MHA load %.2f\n", m, f)
		}
		pm, pf := res.Prefill.OverlapRatios()
		fmt.Fprintf(stdout, "  prefill overlap: MHA compute/FFN load %.2f, FFN compute/MHA load %.2f\n", pm, pf)

		if *traceOut != "" {
			if err := writeTrace(*rc, res.Placement, *traceOut); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  pipeline trace written to %s\n", *traceOut)
		}
		return nil
	}
}

// writeTrace re-runs the schedule over the run's placement, and so its
// quantizer, with tracing enabled and writes a Chrome trace of the
// copy/compute streams.
func writeTrace(rc core.RunConfig, mp *placement.ModelPlacement, path string) error {
	rc = rc.Canonical()
	devs, err := rc.Memory.Devices()
	if err != nil {
		return err
	}
	var tl trace.Timeline
	o := sched.Options{
		Model: rc.Model, Placement: mp, Devices: devs,
		GPU: gpu.NewA100(), Engine: xfer.New(),
		Batch: rc.Batch, PromptLen: rc.PromptLen, GenLen: rc.GenLen,
		Trace: &tl,
	}
	if _, err := sched.Run(o); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tuneCommand runs the QoS-driven placement autotuner (§VII future
// work): the policy and batch size that best meet a latency or
// throughput goal.
func tuneCommand(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rc := target(fs)
	req := autotune.Request{Objective: autotune.MinTBT}
	fs.Func("objective", "min-tbt, max-throughput, qos (default min-tbt)", func(s string) error {
		switch s {
		case "min-tbt":
			req.Objective = autotune.MinTBT
		case "max-throughput":
			req.Objective = autotune.MaxThroughput
		case "qos":
			req.Objective = autotune.MaxThroughputUnderTBT
		default:
			return fmt.Errorf("unknown objective %q", s)
		}
		return nil
	})
	tbtBound := fs.Duration("tbt", 0, "TBT bound for -objective qos, e.g. 6.5s")
	fs.BoolVar(&rc.Compress, "compress", true, "4-bit weight quantization")
	return func(stdout, _ io.Writer) error {
		req.Model, req.Memory, req.Compress = rc.Model, rc.Memory, rc.Compress
		if req.Objective == autotune.MaxThroughputUnderTBT {
			req.TBTBound = units.Duration(tbtBound.Seconds())
		}
		res, err := autotune.Tune(req)
		if res != nil && len(res.Trials) > 0 {
			t := &report.Table{
				Title:   fmt.Sprintf("trials (%s on %s, objective %s)", req.Model.Name, req.Memory, req.Objective),
				Headers: []string{"policy", "batch", "TTFT(s)", "TBT(s)", "tok/s", "feasible"},
			}
			for _, tr := range res.Trials {
				t.AddRow(tr.PolicyName, tr.Batch,
					fmt.Sprintf("%.3f", tr.TTFT.Seconds()),
					fmt.Sprintf("%.3f", tr.TBT.Seconds()),
					fmt.Sprintf("%.3f", tr.Throughput),
					tr.Feasible)
			}
			if rerr := t.Render(stdout); rerr != nil {
				return rerr
			}
			fmt.Fprintln(stdout)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "winner: %s at batch %d — TTFT %.3fs, TBT %.3fs, %.3f tok/s\n",
			res.Best.PolicyName, res.Best.Batch,
			res.Best.TTFT.Seconds(), res.Best.TBT.Seconds(), res.Best.Throughput)
		return nil
	}
}

// classFlag is a -mix-<class> flag: rate,promptlen,maxnew[,slo[,deadline]],
// or empty to leave the class out of the mix.
type classFlag struct {
	text string
	spec *serve.ClassSpec
}

func (c *classFlag) String() string { return c.text }

func (c *classFlag) Set(s string) error {
	if strings.TrimSpace(s) == "" {
		c.text, c.spec = s, nil
		return nil
	}
	parts := strings.Split(s, ",")
	if len(parts) < 3 || len(parts) > 5 {
		return fmt.Errorf("spec %q: want rate,promptlen,maxnew[,slo[,deadline]]", s)
	}
	var cs serve.ClassSpec
	var err error
	if cs.ArrivalRate, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return fmt.Errorf("rate: %w", err)
	}
	if cs.PromptLen, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
		return fmt.Errorf("prompt length: %w", err)
	}
	if cs.MaxNew, err = strconv.Atoi(strings.TrimSpace(parts[2])); err != nil {
		return fmt.Errorf("max-new: %w", err)
	}
	if len(parts) > 3 && strings.TrimSpace(parts[3]) != "" {
		d, err := time.ParseDuration(strings.TrimSpace(parts[3]))
		if err != nil {
			return fmt.Errorf("slo: %w", err)
		}
		cs.SLO = units.Duration(d.Seconds())
	}
	if len(parts) > 4 && strings.TrimSpace(parts[4]) != "" {
		d, err := time.ParseDuration(strings.TrimSpace(parts[4]))
		if err != nil {
			return fmt.Errorf("deadline: %w", err)
		}
		cs.Deadline = units.Duration(d.Seconds())
	}
	c.text, c.spec = s, &cs
	return nil
}

// serveCommand simulates online serving: Poisson arrivals against the
// engine's cost model, with wave batching up to the cap. With -mix it
// simulates the cost-aware mixed-class pipeline instead
// (serve.SimulateMix: the predictor, brownout machine and shedding
// order helmd runs live), reported as a per-class conserved ledger.
func serveCommand(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	rc := target(fs)
	pol := &policyFlag{name: "all-cpu", pol: placement.AllCPU{}}
	fs.Var(pol, "policy", policyUsage)
	fs.BoolVar(&rc.Compress, "compress", true, "4-bit weight quantization")
	fs.IntVar(&rc.Batch, "cap", 44, "wave-size cap (batch)")
	rate := fs.Float64("rate", 1.0, "arrival rate, prompts/sec")
	n := fs.Int("n", 200, "arrivals to simulate")
	seed := fs.Int64("seed", 1, "arrival seed")
	slo := fs.Duration("slo", 0, "end-to-end latency SLO (0 = off)")
	maxQueue := fs.Int("max-queue", 0, "admission bound on the waiting line (0 = unbounded)")
	maxWait := fs.Duration("max-wait", 0, "renege bound on queueing delay (0 = unbounded)")

	mix := fs.Bool("mix", false, "mixed-class cost-aware mode (serve.SimulateMix)")
	specs := []struct {
		class serve.Class
		def   string
		flag  classFlag
	}{
		{class: serve.ClassInteractive, def: "2,128,64,60s"},
		{class: serve.ClassRAG, def: "1,1024,64,180s"},
		{class: serve.ClassBatch, def: "0.5,256,256"},
	}
	for i := range specs {
		s := &specs[i]
		if err := s.flag.Set(s.def); err != nil {
			panic(err)
		}
		fs.Var(&s.flag, "mix-"+s.class.String(), s.class.String()+" spec: rate,promptlen,maxnew[,slo[,deadline]] (empty = class absent)")
	}
	tokenBudget := fs.Int("token-budget", 0, "admitted-cost backlog cap in estimated tokens (0 = unbounded, brownout off)")
	brownHigh := fs.Float64("brownout-high", 0, "brownout enter fraction of -token-budget (0 = default 0.8)")
	brownLow := fs.Float64("brownout-low", 0, "brownout exit fraction (0 = default 0.5)")
	brownSus := fs.Int("brownout-sustain", 0, "consecutive over-high arrivals before brownout escalates (0 = default 8)")

	return func(stdout, _ io.Writer) error {
		rc.Policy = pol.pol
		mc := serve.MixConfig{
			Run:      *rc,
			Seed:     *seed,
			MaxQueue: *maxQueue,
			MaxWait:  units.Duration(maxWait.Seconds()),
		}
		if !*mix {
			// The count mode is one class at the canonical lengths.
			canon := rc.Canonical()
			const class = serve.ClassInteractive
			mc.Classes = []serve.ClassSpec{{Class: class, ArrivalRate: *rate,
				PromptLen: canon.PromptLen, MaxNew: canon.GenLen, SLO: units.Duration(slo.Seconds())}}
			return serveQueue(stdout, mc, serve.PoissonArrivals(class, *rate, *n, *seed), pol.name, *slo)
		}
		mc.TokenBudget = *tokenBudget
		mc.BrownoutHigh, mc.BrownoutLow, mc.BrownoutSustain = *brownHigh, *brownLow, *brownSus
		for _, s := range specs {
			if s.flag.spec != nil {
				cs := *s.flag.spec
				cs.Class = s.class
				mc.Classes = append(mc.Classes, cs)
			}
		}
		return serveMix(stdout, mc, serve.MixArrivals(mc.Classes, *n, *seed), pol.name)
	}
}

// serveQueue runs the one-class queueing simulation and prints its
// metric table.
func serveQueue(stdout io.Writer, mc serve.MixConfig, arrivals []serve.Arrival, polName string, slo time.Duration) error {
	m, err := serve.SimulateMix(mc, arrivals)
	if err != nil {
		return err
	}
	c := mc.Classes[0].Class
	t := &report.Table{
		Title: fmt.Sprintf("online serving: %s on %s, %s, cap %d, %.2f req/s",
			mc.Run.Model.Name, mc.Run.Memory, polName, mc.Run.Batch, mc.Classes[0].ArrivalRate),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("waves", m.Waves)
	t.AddRow("mean wave occupancy", fmt.Sprintf("%.1f", m.MeanBatch))
	t.AddRow("server utilization", fmt.Sprintf("%.1f%%", m.Utilization*100))
	t.AddRow("throughput", fmt.Sprintf("%.3f prompts/s", m.PromptsPerSec))
	t.AddRow("queue delay mean / p99", fmt.Sprintf("%.1fs / %.1fs", m.MeanQueueDelay[c].Seconds(), m.P99QueueDelay[c].Seconds()))
	t.AddRow("E2E latency mean / p99", fmt.Sprintf("%.1fs / %.1fs", m.MeanE2E[c].Seconds(), m.P99E2E[c].Seconds()))
	if mc.MaxQueue > 0 || mc.MaxWait > 0 {
		row := m.Classes[c].Buckets
		t.AddRow("admitted / shed (queue full / max wait)",
			fmt.Sprintf("%d / %d / %d", row[serve.Admitted], row[serve.ShedQueueFull], row[serve.ShedMaxWait]))
	}
	t.AddRow(fmt.Sprintf("SLO (%v) attainment", slo), m.SLOAttainmentString(c))
	return t.Render(stdout)
}

// serveMix runs the mixed-class simulation and prints its per-class
// ledger.
func serveMix(stdout io.Writer, mc serve.MixConfig, arrivals []serve.Arrival, polName string) error {
	m, err := serve.SimulateMix(mc, arrivals)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title: fmt.Sprintf("mixed-class serving: %s on %s, %s, cap %d, budget %d tokens",
			mc.Run.Model.Name, mc.Run.Memory, polName, mc.Run.Batch, mc.TokenBudget),
		Headers: []string{"class", "arrivals", "admitted", "shed (brown/budget/queue/deadline/wait/other)", "E2E mean/p99", "SLO"},
	}
	for c := serve.Class(serve.NumClasses - 1); c >= 0; c-- { // highest class first
		row := m.Classes[c]
		if row.Arrivals == 0 {
			continue
		}
		b := row.Buckets
		t.AddRow(c.String(),
			row.Arrivals, b[serve.Admitted],
			// The simulator reaches one more shed bucket: page pressure.
			fmt.Sprintf("%d/%d/%d/%d/%d/%d",
				b[serve.ShedBrownout], b[serve.ShedCostBudget], b[serve.ShedQueueFull],
				b[serve.ShedDeadline], b[serve.ShedMaxWait], b[serve.ShedPagePressure]),
			fmt.Sprintf("%.1fs / %.1fs", m.MeanE2E[c].Seconds(), m.P99E2E[c].Seconds()),
			m.SLOAttainmentString(c))
	}
	if err := t.Render(stdout); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "waves %d, mean occupancy %.1f, utilization %.1f%%, peak backlog %d tokens, brownout entries/exits %d/%d, ledger conserved: %v\n",
		m.Waves, m.MeanBatch, m.Utilization*100, m.MaxBacklog, m.BrownoutEntries, m.BrownoutExits, m.Conserved())
	return nil
}
