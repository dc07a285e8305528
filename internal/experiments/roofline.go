package experiments

import (
	"fmt"

	"helmsim/internal/calib"
	"helmsim/internal/gpu"
	"helmsim/internal/model"
	"helmsim/internal/report"
	"helmsim/internal/units"
)

func init() {
	register(Experiment{
		ID:    "roofline",
		Title: "§II-A quantified: operational intensity and boundness per kernel, stage and batch",
		Run:   runRoofline,
	})
}

// runRoofline analyzes operational intensity — the flops each kernel
// performs per byte it must move — and classifies layers as compute- or
// memory-bound against a machine balance point. This is the §II-A argument
// made quantitative: prefill runs GEMMs whose intensity grows with the
// token count (compute-bound), decode runs GEMVs pinned at ~1 flop/byte
// (memory-bound), and batching raises FFN intensity while the per-prompt
// attention GEMVs stay memory-bound.
//
// It classifies the FFN and attention kernels of both evaluated models
// against two machines: weights resident in HBM and weights streamed from
// Optane — Fig. 1's prefill/decode dichotomy with numbers.
func runRoofline() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Roofline classification (balance: HBM vs Optane-streamed weights)",
		Headers: []string{"model", "kernel", "stage", "batch", "flops/byte", "vs HBM", "vs Optane stream"},
	}
	hbm := a100HBM()
	link := a100OverLink(calib.HostToGPUOptaneSmall)

	type point struct {
		cfg   model.Config
		stage string
		batch int
	}
	points := []point{
		{model.OPT30B(), "prefill", 1}, {model.OPT30B(), "prefill", 32},
		{model.OPT30B(), "decode", 1}, {model.OPT30B(), "decode", 32},
		{model.OPT175B(), "prefill", 1}, {model.OPT175B(), "prefill", 8},
		{model.OPT175B(), "decode", 8}, {model.OPT175B(), "decode", 44},
	}
	for _, p := range points {
		f, b, err := layerKernel(p.cfg, model.LayerFFN, p.stage, p.batch, 128)
		if err != nil {
			return nil, err
		}
		ah, err := hbm.classify(model.LayerFFN, p.stage, f, b)
		if err != nil {
			return nil, err
		}
		al, err := link.classify(model.LayerFFN, p.stage, f, b)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.cfg.Name, "FFN", p.stage, p.batch,
			fmt.Sprintf("%.1f", ah.Intensity), ah.Bound.String(), al.Bound.String())
	}
	// Attention over the KV cache: fixed intensity regardless of batch.
	for _, batch := range []int{1, 44} {
		f, b, err := attentionKernel(model.OPT175B(), batch, 2048)
		if err != nil {
			return nil, err
		}
		a, err := hbm.classify(model.LayerMHA, "decode", f, b)
		if err != nil {
			return nil, err
		}
		t.AddRow("OPT-175B", "attention(KV)", "decode", batch,
			fmt.Sprintf("%.1f", a.Intensity), a.Bound.String(), "memory-bound")
	}
	return []*report.Table{t}, nil
}

// boundness classifies a kernel against the machine balance.
type boundness int

// Classifications.
const (
	memoryBound boundness = iota
	computeBound
)

// String names the classification.
func (b boundness) String() string {
	if b == memoryBound {
		return "memory-bound"
	}
	return "compute-bound"
}

// kernelAnalysis is one kernel's roofline position.
type kernelAnalysis struct {
	// Layer and Stage identify the kernel.
	Layer model.LayerType
	Stage string
	// Flops and Bytes are the kernel's work and traffic.
	Flops float64
	Bytes units.Bytes
	// Intensity is flops per byte.
	Intensity float64
	// Balance is the machine balance the kernel is judged against
	// (peak flops / bandwidth of the limiting memory).
	Balance float64
	// Bound is the classification.
	Bound boundness
	// AttainableFLOPS is the roofline ceiling at this intensity.
	AttainableFLOPS units.FLOPS
}

// machine describes the roofline machine: the limiting bandwidth depends
// on where the weights stream from.
type machine struct {
	// Peak is the compute ceiling.
	Peak units.FLOPS
	// BW is the limiting bandwidth (HBM for GPU-resident weights, the
	// host link for streamed ones).
	BW units.Bandwidth
}

// a100HBM is the machine for GPU-resident weights.
func a100HBM() machine {
	g := gpu.NewA100()
	return machine{Peak: units.FLOPS(float64(g.PeakFP16) * g.UtilMax), BW: units.Bandwidth(float64(g.HBM) * g.HBMEff)}
}

// a100OverLink is the machine when weights stream over the given
// host-to-GPU bandwidth each use — the out-of-core regime of the paper.
func a100OverLink(link units.Bandwidth) machine {
	g := gpu.NewA100()
	return machine{Peak: units.FLOPS(float64(g.PeakFP16) * g.UtilMax), BW: link}
}

// balancePoint is the intensity (flops/byte) above which the machine is
// compute-bound.
func (m machine) balancePoint() float64 {
	if m.BW <= 0 {
		return 0
	}
	return float64(m.Peak) / float64(m.BW)
}

// classify positions a kernel with the given work and traffic.
func (m machine) classify(lt model.LayerType, stage string, flops float64, bytes units.Bytes) (kernelAnalysis, error) {
	if flops < 0 || bytes < 0 {
		return kernelAnalysis{}, fmt.Errorf("roofline: negative work (%g flops, %d bytes)", flops, bytes)
	}
	a := kernelAnalysis{Layer: lt, Stage: stage, Flops: flops, Bytes: bytes, Balance: m.balancePoint()}
	if bytes > 0 {
		a.Intensity = flops / float64(bytes)
	}
	if a.Intensity >= a.Balance {
		a.Bound = computeBound
		a.AttainableFLOPS = m.Peak
	} else {
		a.Bound = memoryBound
		a.AttainableFLOPS = units.FLOPS(a.Intensity * float64(m.BW))
	}
	return a, nil
}

// layerKernel computes the flops and weight traffic of one hidden layer's
// matmuls at the given stage and batch: tokens = batch x promptLen for
// prefill, batch for decode; traffic = the layer's weight bytes (streamed
// or read once per pass).
func layerKernel(cfg model.Config, lt model.LayerType, stage string, batch, promptLen int) (flops float64, bytes units.Bytes, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	if batch <= 0 || promptLen <= 0 {
		return 0, 0, fmt.Errorf("roofline: non-positive batch/prompt (%d, %d)", batch, promptLen)
	}
	tokens := batch
	if stage == "prefill" {
		tokens = batch * promptLen
	}
	for _, l := range cfg.Layers() {
		if l.Type != lt {
			continue
		}
		switch lt {
		case model.LayerMHA:
			return cfg.MHAProjFlops(tokens), l.WeightBytes(), nil
		case model.LayerFFN:
			return cfg.FFNFlops(tokens), l.WeightBytes(), nil
		default:
			return 0, 0, fmt.Errorf("roofline: unsupported layer type %v", lt)
		}
	}
	return 0, 0, fmt.Errorf("roofline: layer type %v not in model", lt)
}

// attentionKernel computes the per-step attention work over the KV cache:
// per-prompt GEMVs whose intensity is fixed near 1 flop/byte regardless of
// batch (§IV-B: batching does not raise decode attention intensity).
func attentionKernel(cfg model.Config, batch, ctx int) (flops float64, bytes units.Bytes, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	if batch <= 0 || ctx <= 0 {
		return 0, 0, fmt.Errorf("roofline: non-positive batch/ctx (%d, %d)", batch, ctx)
	}
	flops = cfg.AttnFlopsPerPrompt(1, ctx) * float64(batch)
	bytes = cfg.KVBytesPerPromptPerBlock(ctx) * units.Bytes(batch)
	return flops, bytes, nil
}
