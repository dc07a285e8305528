package placement

import (
	"fmt"

	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/units"
)

// LayerPlacement is one layer's resolved placement.
type LayerPlacement struct {
	// Layer is the placed layer.
	Layer model.Layer
	// Assignments lists every weight's tier, in allocation order.
	Assignments []Assignment
}

// BytesOn totals the layer's stored bytes on one tier.
func (lp LayerPlacement) BytesOn(t Tier) units.Bytes {
	var n units.Bytes
	for _, a := range lp.Assignments {
		if a.Tier == t {
			n += a.Stored
		}
	}
	return n
}

// TotalBytes totals the layer's stored bytes across all tiers.
func (lp LayerPlacement) TotalBytes() units.Bytes {
	var n units.Bytes
	for _, a := range lp.Assignments {
		n += a.Stored
	}
	return n
}

// ModelPlacement is the whole model's resolved placement.
type ModelPlacement struct {
	// PolicyName records which policy produced the placement.
	PolicyName string
	// Config is the placed model.
	Config model.Config
	// Quantizer is the group-wise quantizer every weight is stored
	// under, or nil when weights are stored at their native size.
	Quantizer *quant.Config
	// Layers holds one placement per schedulable layer, in order.
	Layers []LayerPlacement
}

// PlaceModel runs the policy over every layer of the model. The policy
// chooses tiers from the raw spec sizes; PlaceModel then records each
// assignment's stored size, qc.CompressedBytes of its elements, or the
// raw size when qc is nil.
func PlaceModel(p Policy, cfg model.Config, qc *quant.Config) (*ModelPlacement, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mp := &ModelPlacement{PolicyName: p.Name(), Config: cfg}
	if qc != nil {
		if err := qc.Validate(); err != nil {
			return nil, err
		}
		c := *qc
		mp.Quantizer = &c
	}
	layers := cfg.Layers()
	mp.Layers = make([]LayerPlacement, 0, len(layers))
	for _, l := range layers {
		as, err := p.PlaceLayer(l)
		if err != nil {
			return nil, fmt.Errorf("placement: layer %d (%v): %w", l.Index, l.Type, err)
		}
		if len(as) != len(l.Weights) {
			return nil, fmt.Errorf("placement: layer %d: %d assignments for %d weights", l.Index, len(as), len(l.Weights))
		}
		for i := range as {
			as[i].Stored = as[i].Spec.Bytes
			if qc != nil {
				as[i].Stored = qc.CompressedBytes(as[i].Spec.Elems)
			}
		}
		mp.Layers = append(mp.Layers, LayerPlacement{Layer: l, Assignments: as})
	}
	return mp, nil
}

// TotalOn totals stored bytes across the model on one tier.
func (mp *ModelPlacement) TotalOn(t Tier) units.Bytes {
	var n units.Bytes
	for _, lp := range mp.Layers {
		n += lp.BytesOn(t)
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

// distribution computes the raw-size split over a subset of layers.
func distribution(layers []LayerPlacement) Distribution {
	var per [numTiers]units.Bytes
	var total units.Bytes
	for _, lp := range layers {
		for _, a := range lp.Assignments {
			per[a.Tier] += a.Spec.Bytes
			total += a.Spec.Bytes
		}
	}
	if total == 0 {
		return Distribution{}
	}
	pct := func(t Tier) float64 { return float64(per[t]) / float64(total) * 100 }
	return Distribution{DiskPct: pct(TierDisk), CPUPct: pct(TierCPU), GPUPct: pct(TierGPU)}
}

// AchievedDistribution is the model-wide achieved split of raw weight
// bytes — the quantity the paper compares against the requested split in
// §V-A.
func (mp *ModelPlacement) AchievedDistribution() Distribution {
	return distribution(mp.Layers)
}

// DistributionByType is the achieved raw split over layers of one type —
// the per-layer-type view of Figs. 7b, 7c and 10.
func (mp *ModelPlacement) DistributionByType(t model.LayerType) Distribution {
	var sel []LayerPlacement
	for _, lp := range mp.Layers {
		if lp.Layer.Type == t {
			sel = append(sel, lp)
		}
	}
	return distribution(sel)
}
