// Package placement implements model-weight placement across the memory
// hierarchy: the faithful port of FlexGen's percent-driven allocator
// (Listing 2 of the paper), the paper's two proposed schemes — HeLM
// (latency-optimizing, Listing 3) and All-CPU (throughput-optimizing) —
// plus All-GPU for models that fit on the accelerator.
//
// The baseline allocator is reproduced verbatim, including its documented
// imperfections: it walks each layer's weight specs in initialization
// order and assigns each to the tier whose cumulative percentage bucket
// contains the spec's size midpoint. Because weight sizes are chunky, the
// achieved distribution deviates from the request — e.g. a requested
// (65, 15, 20) disk/cpu/gpu split lands at (58.6, 33.1, 8.3) for OPT-175B
// (§V-A) — and the larger FFN layers get no GPU allocation while the
// smaller MHA layers do, producing Fig. 7a's sawtooth. HeLM exploits the
// same mechanism deliberately: with specs sorted ascending and a 30% GPU
// request, fc1's midpoint falls below the GPU boundary and fc2's above it,
// pinning exactly half of the FFN bulk on the GPU (Figs. 9-10).
//
// Every policy decides on raw (FP16) sizes. Compression (§IV-B) changes
// only what each placed weight costs to hold, stream and dequantize, so
// PlaceModel records each assignment's stored size under the run's
// quantizer, and the byte totals (BytesOn, TotalBytes, TotalOn) sum those.
// The percentage views (AchievedDistribution, DistributionByType) stay on
// raw sizes: the raw split is the §V-A quantity.
package placement

import (
	"fmt"
	"sort"

	"helmsim/internal/model"
	"helmsim/internal/units"
)

// Tier identifies a level of the weight hierarchy.
type Tier int

// Tiers, fastest last to match FlexGen's (disk, cpu, gpu) policy order.
const (
	TierDisk Tier = iota
	TierCPU
	TierGPU
	numTiers
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierDisk:
		return "disk"
	case TierCPU:
		return "cpu"
	case TierGPU:
		return "gpu"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Assignment binds one weight spec to a tier.
type Assignment struct {
	Spec model.WeightSpec
	Tier Tier
	// Stored is the spec's size as its tier holds it. PlaceModel sets it
	// from the placement's quantizer; a policy cannot supply it.
	Stored units.Bytes
}

// Policy decides where each layer's weights live.
type Policy interface {
	// Name is a short policy label for reports.
	Name() string
	// PlaceLayer assigns every weight of the layer to a tier. The
	// returned slice belongs to the caller: PlaceModel writes each
	// assignment's Stored size into it.
	PlaceLayer(l model.Layer) ([]Assignment, error)
}

// ---------------------------------------------------------------------------
// The FlexGen allocator (Listing 2), ported line for line.
// ---------------------------------------------------------------------------

// getChoice is FlexGen's get_choice: find the first cumulative-percentage
// bucket containing curPercent; past the end, return the last choice.
func getChoice(curPercent float64, percents []float64, choices []Tier) Tier {
	cum := 0.0
	for i, p := range percents {
		cum += p
		if curPercent < cum {
			return choices[i]
		}
	}
	return choices[len(choices)-1]
}

// initWeightList is FlexGen's init_weight_list: assign each spec to the
// bucket containing the midpoint of its cumulative size range.
func initWeightList(specs []model.WeightSpec, percents []float64, choices []Tier) ([]Assignment, error) {
	if len(percents) != len(choices) {
		return nil, fmt.Errorf("placement: %d percents vs %d choices", len(percents), len(choices))
	}
	var sum float64
	for _, p := range percents {
		if p < 0 {
			return nil, fmt.Errorf("placement: negative percent %v", p)
		}
		sum += p
	}
	if sum < 99.999 || sum > 100.001 {
		return nil, fmt.Errorf("placement: percents sum to %v, want 100", sum)
	}
	var total, cumsum units.Bytes
	for _, s := range specs {
		if s.Bytes < 0 {
			return nil, fmt.Errorf("placement: negative spec size %v", s.Name)
		}
		total += s.Bytes
	}
	out := make([]Assignment, 0, len(specs))
	for _, s := range specs {
		cumsum += s.Bytes
		var mid float64
		if total > 0 {
			mid = (float64(cumsum) - float64(s.Bytes)/2) / float64(total) * 100
		}
		out = append(out, Assignment{Spec: s, Tier: getChoice(mid, percents, choices)})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Baseline policy (§V-A)
// ---------------------------------------------------------------------------

// Baseline is FlexGen's default policy: one user-specified percentage split
// across (disk, cpu, gpu), applied uniformly to every layer.
type Baseline struct {
	// DiskPct, CPUPct and GPUPct are the requested percentage split; they
	// must sum to 100.
	DiskPct, CPUPct, GPUPct float64
}

// Name implements Policy.
func (b Baseline) Name() string {
	return fmt.Sprintf("baseline(%g,%g,%g)", b.DiskPct, b.CPUPct, b.GPUPct)
}

// PlaceLayer implements Policy with the verbatim Listing 2 algorithm.
func (b Baseline) PlaceLayer(l model.Layer) ([]Assignment, error) {
	percents := []float64{b.DiskPct, b.CPUPct, b.GPUPct}
	choices := []Tier{TierDisk, TierCPU, TierGPU}
	return initWeightList(l.Weights, percents, choices)
}

// ---------------------------------------------------------------------------
// HeLM policy (§V-B, Listing 3)
// ---------------------------------------------------------------------------

// HeLM is the paper's latency-optimizing Heterogeneous Layerwise Mapping:
// per-layer-type percentage splits in (gpu, cpu, disk) order — (10, 90, 0)
// for MHA and (30, 70, 0) for FFN — applied to the weight specs sorted by
// increasing size. The sort pushes all biases and layer norms into the GPU
// bucket, and the midpoint rule then lands fc1 on the GPU and fc2 on the
// host: FFN transfer drops ~49% while MHA transfer (now host-only but for
// the small tensors) grows ~33%, balancing the pipeline (Fig. 11).
type HeLM struct {
	// Default is the split for layers that are neither MHA nor FFN
	// (embeddings), in FlexGen's (disk, cpu, gpu) order.
	Default Baseline
}

// Name implements Policy.
func (h HeLM) Name() string { return "helm" }

// PlaceLayer implements Policy with the Listing 3 algorithm.
func (h HeLM) PlaceLayer(l model.Layer) ([]Assignment, error) {
	var percents []float64
	switch l.Type {
	case model.LayerMHA:
		percents = []float64{10, 90, 0}
	case model.LayerFFN:
		percents = []float64{30, 70, 0}
	default:
		percents = []float64{h.Default.GPUPct, h.Default.CPUPct, h.Default.DiskPct}
	}
	choices := []Tier{TierGPU, TierCPU, TierDisk}

	specs := append([]model.WeightSpec(nil), l.Weights...)
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Bytes < specs[j].Bytes })
	return initWeightList(specs, percents, choices)
}

// ---------------------------------------------------------------------------
// All-CPU policy (§V-C)
// ---------------------------------------------------------------------------

// AllCPU is the paper's throughput-optimizing policy: every weight lives on
// host memory, freeing the whole GPU for KV cache and hidden state and
// raising the maximum batch size (8 -> 44 for OPT-175B, §V-C).
type AllCPU struct{}

// Name implements Policy.
func (AllCPU) Name() string { return "all-cpu" }

// PlaceLayer implements Policy.
func (AllCPU) PlaceLayer(l model.Layer) ([]Assignment, error) {
	out := make([]Assignment, 0, len(l.Weights))
	for _, s := range l.Weights {
		out = append(out, Assignment{Spec: s, Tier: TierCPU})
	}
	return out, nil
}

// AllGPU pins every weight on the accelerator; valid only when the model
// (plus KV cache) fits, e.g. compressed OPT-30B (§IV-B).
type AllGPU struct{}

// Name implements Policy.
func (AllGPU) Name() string { return "all-gpu" }

// PlaceLayer implements Policy.
func (AllGPU) PlaceLayer(l model.Layer) ([]Assignment, error) {
	out := make([]Assignment, 0, len(l.Weights))
	for _, s := range l.Weights {
		out = append(out, Assignment{Spec: s, Tier: TierGPU})
	}
	return out, nil
}
