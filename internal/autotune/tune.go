package autotune

import (
	"fmt"
	"math"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/units"
)

// Objective selects what Tune optimizes.
type Objective int

// Objectives.
const (
	// MinTBT minimizes time between tokens (latency serving).
	MinTBT Objective = iota
	// MaxThroughput maximizes tokens per second.
	MaxThroughput
	// MaxThroughputUnderTBT maximizes throughput subject to a TBT bound.
	MaxThroughputUnderTBT
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MinTBT:
		return "min-TBT"
	case MaxThroughput:
		return "max-throughput"
	case MaxThroughputUnderTBT:
		return "max-throughput-under-TBT"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Request describes a tuning problem.
type Request struct {
	// Model, Memory and Compress fix the serving configuration.
	Model    model.Config
	Memory   core.MemoryConfig
	Compress bool
	// Objective selects the goal.
	Objective Objective
	// TBTBound is the QoS latency bound for MaxThroughputUnderTBT.
	TBTBound units.Duration
	// MaxBatch caps the search; 0 means the GPU budget's cap.
	MaxBatch int
}

// Trial is one evaluated configuration.
type Trial struct {
	// PolicyName and Batch identify the point.
	PolicyName string
	Batch      int
	// TTFT, TBT and Throughput are its metrics.
	TTFT, TBT  units.Duration
	Throughput float64
	// Feasible reports whether the point satisfied the QoS bound.
	Feasible bool
}

// Result is the tuning outcome.
type Result struct {
	// Best is the winning configuration (nil Policy when nothing was
	// feasible).
	Best *Trial
	// Policy is the winning placement policy, re-runnable via core.Run.
	Policy placement.Policy
	// Trials lists every evaluated point, in evaluation order.
	Trials []Trial
}

// Tune searches candidate policies and batch sizes for the objective. The
// candidate set covers the paper's three schemes plus Balance at three GPU
// budgets (25/50/75% of the free GPU memory after reserve).
func Tune(req Request) (*Result, error) {
	if err := req.Model.Validate(); err != nil {
		return nil, err
	}
	if req.Objective == MaxThroughputUnderTBT && req.TBTBound <= 0 {
		return nil, fmt.Errorf("autotune: QoS objective needs a positive TBT bound")
	}

	base := core.RunConfig{Model: req.Model, Memory: req.Memory, Compress: req.Compress, Batch: 1}

	// Candidate policies.
	type cand struct {
		name string
		pol  placement.Policy
	}
	cands := []cand{
		{"baseline", core.DefaultPolicy(req.Model, req.Memory, req.Compress)},
		{"helm", placement.HeLM{Default: placement.Baseline{DiskPct: 0, CPUPct: 80, GPUPct: 20}}},
		{"all-cpu", placement.AllCPU{}},
	}
	for _, frac := range []float64{0.25, 0.50, 0.75} {
		budget := units.Bytes(frac * float64(30*units.GB))
		bp, err := Balance(base, budget)
		if err != nil {
			return nil, err
		}
		cands = append(cands, cand{bp.Name(), bp})
	}

	res := &Result{}
	better := func(t Trial, pol placement.Policy) {
		if req.Objective == MaxThroughputUnderTBT && !t.Feasible {
			return
		}
		if res.Best == nil {
			cp := t
			res.Best = &cp
			res.Policy = pol
			return
		}
		improve := false
		switch req.Objective {
		case MinTBT:
			improve = t.TBT < res.Best.TBT
		case MaxThroughput, MaxThroughputUnderTBT:
			improve = t.Throughput > res.Best.Throughput
		}
		if improve {
			cp := t
			res.Best = &cp
			res.Policy = pol
		}
	}

	for _, c := range cands {
		rc := base
		rc.Policy = c.pol
		cap, err := core.MaxBatchFor(rc)
		if err != nil {
			return nil, fmt.Errorf("autotune: %s: %w", c.name, err)
		}
		if cap < 1 {
			continue // policy does not fit at all
		}
		if req.MaxBatch > 0 && cap > req.MaxBatch {
			cap = req.MaxBatch
		}
		for _, b := range batchLadder(cap) {
			rc.Batch = b
			run, err := core.Run(rc)
			if err != nil {
				return nil, fmt.Errorf("autotune: %s batch %d: %w", c.name, b, err)
			}
			t := Trial{
				PolicyName: c.name, Batch: b,
				TTFT: run.TTFT, TBT: run.TBT, Throughput: run.Throughput,
				Feasible: req.TBTBound <= 0 || run.TBT <= req.TBTBound,
			}
			res.Trials = append(res.Trials, t)
			better(t, c.pol)
			if req.Objective == MinTBT {
				break // TBT is batch-insensitive upward; batch 1 suffices
			}
		}
	}
	if res.Best == nil {
		return res, fmt.Errorf("autotune: no feasible configuration under TBT bound %v", req.TBTBound)
	}
	return res, nil
}

// batchLadder enumerates powers of two up to cap, plus cap itself.
func batchLadder(cap int) []int {
	var out []int
	for b := 1; b < cap; b *= 2 {
		out = append(out, b)
	}
	out = append(out, cap)
	return out
}

// ParetoFront filters trials to the latency/throughput Pareto-optimal set
// (no other trial is both faster and higher-throughput).
func ParetoFront(trials []Trial) []Trial {
	var front []Trial
	for _, t := range trials {
		dominated := false
		for _, u := range trials {
			if u.TBT < t.TBT && u.Throughput > t.Throughput {
				dominated = true
				break
			}
			if u.TBT == t.TBT && u.Throughput > t.Throughput {
				dominated = true
				break
			}
		}
		if !dominated && !math.IsNaN(t.Throughput) {
			front = append(front, t)
		}
	}
	return front
}
