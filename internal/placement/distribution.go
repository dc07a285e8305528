package placement

import (
	"fmt"

	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/units"
)

// Sizer maps a weight spec to its stored size; RawSizer stores tensors
// uncompressed, SizerFor's quantizing sizer maps through quant.Config.
type Sizer func(model.WeightSpec) units.Bytes

// RawSizer stores weights at their native (FP16) size.
func RawSizer(s model.WeightSpec) units.Bytes { return s.Bytes }

// SizerFor is the Sizer of weights stored group-wise quantized under qc,
// or RawSizer when qc is nil.
func SizerFor(qc *quant.Config) Sizer {
	if qc == nil {
		return RawSizer
	}
	c := *qc
	return func(s model.WeightSpec) units.Bytes { return c.CompressedBytes(s.Elems) }
}

// LayerPlacement is one layer's resolved placement.
type LayerPlacement struct {
	// Layer is the placed layer.
	Layer model.Layer
	// Assignments lists every weight's tier, in allocation order.
	Assignments []Assignment
}

// BytesOn totals the layer's stored bytes on one tier under the sizer.
func (lp LayerPlacement) BytesOn(t Tier, sz Sizer) units.Bytes {
	var n units.Bytes
	for _, a := range lp.Assignments {
		if a.Tier == t {
			n += sz(a.Spec)
		}
	}
	return n
}

// TotalBytes totals the layer's stored bytes across all tiers.
func (lp LayerPlacement) TotalBytes(sz Sizer) units.Bytes {
	var n units.Bytes
	for _, a := range lp.Assignments {
		n += sz(a.Spec)
	}
	return n
}

// ModelPlacement is the whole model's resolved placement.
type ModelPlacement struct {
	// PolicyName records which policy produced the placement.
	PolicyName string
	// Config is the placed model.
	Config model.Config
	// Layers holds one placement per schedulable layer, in order.
	Layers []LayerPlacement
}

// PlaceModel runs the policy over every layer of the model.
func PlaceModel(p Policy, cfg model.Config) (*ModelPlacement, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layers := cfg.Layers()
	mp := &ModelPlacement{PolicyName: p.Name(), Config: cfg, Layers: make([]LayerPlacement, 0, len(layers))}
	for _, l := range layers {
		as, err := p.PlaceLayer(l)
		if err != nil {
			return nil, fmt.Errorf("placement: layer %d (%v): %w", l.Index, l.Type, err)
		}
		if len(as) != len(l.Weights) {
			return nil, fmt.Errorf("placement: layer %d: %d assignments for %d weights", l.Index, len(as), len(l.Weights))
		}
		mp.Layers = append(mp.Layers, LayerPlacement{Layer: l, Assignments: as})
	}
	return mp, nil
}

// TotalOn totals stored bytes across the model on one tier.
func (mp *ModelPlacement) TotalOn(t Tier, sz Sizer) units.Bytes {
	var n units.Bytes
	for _, lp := range mp.Layers {
		n += lp.BytesOn(t, sz)
	}
	return n
}

// Distribution is a percentage split over the three tiers.
type Distribution struct {
	// DiskPct, CPUPct and GPUPct sum to 100 (for a non-empty model).
	DiskPct, CPUPct, GPUPct float64
}

// String renders the split in the paper's (storage, host, GPU) order.
func (d Distribution) String() string {
	return fmt.Sprintf("(%.1f, %.1f, %.1f)", d.DiskPct, d.CPUPct, d.GPUPct)
}

// Pct reports one tier's share.
func (d Distribution) Pct(t Tier) float64 {
	switch t {
	case TierDisk:
		return d.DiskPct
	case TierCPU:
		return d.CPUPct
	default:
		return d.GPUPct
	}
}

// distribution computes the split over a subset of layers.
func distribution(layers []LayerPlacement, sz Sizer) Distribution {
	var per [numTiers]units.Bytes
	var total units.Bytes
	for _, lp := range layers {
		for _, a := range lp.Assignments {
			per[a.Tier] += sz(a.Spec)
			total += sz(a.Spec)
		}
	}
	if total == 0 {
		return Distribution{}
	}
	pct := func(t Tier) float64 { return float64(per[t]) / float64(total) * 100 }
	return Distribution{DiskPct: pct(TierDisk), CPUPct: pct(TierCPU), GPUPct: pct(TierGPU)}
}

// AchievedDistribution is the model-wide achieved split — the quantity the
// paper compares against the requested split in §V-A.
func (mp *ModelPlacement) AchievedDistribution(sz Sizer) Distribution {
	return distribution(mp.Layers, sz)
}

// DistributionByType is the achieved split over layers of one type — the
// per-layer-type view of Figs. 7b, 7c and 10.
func (mp *ModelPlacement) DistributionByType(t model.LayerType, sz Sizer) Distribution {
	var sel []LayerPlacement
	for _, lp := range mp.Layers {
		if lp.Layer.Type == t {
			sel = append(sel, lp)
		}
	}
	return distribution(sel, sz)
}
