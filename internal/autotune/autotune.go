// Package autotune implements the paper's stated future work (§VII):
// weight-placement algorithms that automatically make latency/throughput
// trade-offs from desired quality-of-service requirements.
//
// Two pieces:
//
//   - Balance: a compute-aware placement generator that generalizes HeLM
//     beyond OPT's fixed layer structure. It probes the cost model for each
//     layer's compute time and full-host transfer time, then waterfills a
//     GPU byte budget onto the layers whose transfer most overshoots the
//     compute time of the layer they overlap with (layer i's compute hides
//     layer i+1's transfer, Listing 1).
//
//   - Tune: a QoS-driven search over candidate policies (FlexGen baseline,
//     HeLM, All-CPU, and Balance at several budgets) and batch sizes,
//     returning the best configuration for a latency target, a throughput
//     target, or max throughput under a TBT bound.
package autotune

import (
	"fmt"
	"slices"
	"sort"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/units"
)

// FixedPlacement is a Policy that replays precomputed per-layer
// assignments; Balance produces one.
type FixedPlacement struct {
	name   string
	layers map[int][]placement.Assignment
}

// Name implements placement.Policy.
func (f *FixedPlacement) Name() string { return f.name }

// PlaceLayer implements placement.Policy with a copy of the layer's
// assignments.
func (f *FixedPlacement) PlaceLayer(l model.Layer) ([]placement.Assignment, error) {
	as, ok := f.layers[l.Index]
	if !ok {
		return nil, fmt.Errorf("autotune: no assignments for layer %d", l.Index)
	}
	return slices.Clone(as), nil
}

// Balance builds a compute-aware placement for the configuration: all
// weights start on the host tier, and up to gpuBudget bytes (stored size)
// migrate to the GPU, largest-overshoot layers first, until every layer's
// transfer hides behind the preceding layer's compute or the budget runs
// out.
//
// The probe run uses the All-CPU placement, so the measured per-layer
// compute times and full-host transfer times are exactly what the
// schedule would see.
func Balance(rc core.RunConfig, gpuBudget units.Bytes) (*FixedPlacement, error) {
	if gpuBudget < 0 {
		return nil, fmt.Errorf("autotune: negative GPU budget %v", gpuBudget)
	}
	probe := rc
	probe.Policy = placement.AllCPU{}
	if probe.Batch <= 0 {
		probe.Batch = 1
	}
	res, err := core.Run(probe)
	if err != nil {
		return nil, fmt.Errorf("autotune: probe run: %w", err)
	}

	// Per-layer compute and full-host load from the probe (decode pass:
	// the latency-critical stage; prefill is served too since its compute
	// is never lower).
	layers := res.Placement.Layers
	step := res.Prefill
	if len(res.Decode) > 0 {
		step = res.Decode[len(res.Decode)-1]
	}
	n := len(layers)
	compute := make([]units.Duration, n)
	load := make([]units.Duration, n)
	for i, lt := range step.Layers {
		compute[i] = lt.Compute
		load[i] = lt.Load
	}

	// Effective streaming bandwidth per layer: bytes / time, to convert a
	// time overshoot into a byte count to migrate. The probe placement
	// records every weight's stored size.
	hostBytes := make([]units.Bytes, n)
	for i, lp := range layers {
		hostBytes[i] = lp.TotalBytes()
	}

	// Remaining host bytes and the spec migration state.
	states := make([]*layerState, n)
	for i, lp := range layers {
		specs := slices.Clone(lp.Assignments)
		sort.SliceStable(specs, func(a, b int) bool { return specs[a].Stored > specs[b].Stored })
		prev := (i - 1 + n) % n
		states[i] = &layerState{
			idx:      i,
			specs:    specs,
			onGPU:    map[string]bool{},
			remain:   hostBytes[i],
			overlapC: compute[prev],
		}
	}

	// bw converts remaining bytes to time using the probe's observed
	// effective bandwidth for that layer.
	bw := func(s *layerState) float64 {
		if load[s.idx] <= 0 {
			return 0
		}
		return float64(hostBytes[s.idx]) / load[s.idx].Seconds()
	}
	overshoot := func(s *layerState) units.Duration {
		b := bw(s)
		if b <= 0 {
			return 0
		}
		t := units.Duration(float64(s.remain) / b)
		if t <= s.overlapC {
			return 0
		}
		return t - s.overlapC
	}

	budget := gpuBudget
	for {
		// Pick the layer with the worst overshoot that still has a spec
		// small enough for the remaining budget.
		var best *layerState
		var bestOver units.Duration
		for _, s := range states {
			if o := overshoot(s); o > bestOver {
				if next := nextSpec(s, budget); next >= 0 {
					best = s
					bestOver = o
				}
			}
		}
		if best == nil {
			break
		}
		a := best.specs[nextSpec(best, budget)]
		best.onGPU[a.Spec.Name] = true
		budget -= a.Stored
		best.remain -= a.Stored
	}

	// Materialize the per-layer assignments in spec order.
	out := &FixedPlacement{
		name:   fmt.Sprintf("balance(%v)", gpuBudget),
		layers: make(map[int][]placement.Assignment, n),
	}
	for i, lp := range layers {
		as := make([]placement.Assignment, 0, len(lp.Layer.Weights))
		for _, sp := range lp.Layer.Weights {
			tier := placement.TierCPU
			if states[i].onGPU[sp.Name] {
				tier = placement.TierGPU
			}
			as = append(as, placement.Assignment{Spec: sp, Tier: tier})
		}
		out.layers[lp.Layer.Index] = as
	}
	return out, nil
}

// nextSpec returns the index of the largest still-host spec of s that fits
// the budget, or -1.
func nextSpec(s *layerState, budget units.Bytes) int {
	for i, a := range s.specs {
		if s.onGPU[a.Spec.Name] {
			continue
		}
		if a.Stored <= budget && a.Spec.Bytes > 0 {
			return i
		}
	}
	return -1
}

// layerState tracks one layer's migration state during waterfilling.
type layerState struct {
	idx      int
	specs    []placement.Assignment // descending stored size
	onGPU    map[string]bool
	remain   units.Bytes    // bytes still on the host
	overlapC units.Duration // compute of the layer whose slot hides us
}
