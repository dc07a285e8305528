// Package sched simulates FlexGen's zig-zag compute schedule (Listing 1 of
// the paper):
//
//	for i in range(execute_gen_len):
//	    for j in range(num_layers):
//	        load_weight(i, j+1)
//	        compute_layer(i, j)
//	        sync()
//
// Weight transfer for layer j+1 overlaps with layer j's compute; the sync
// makes each pipeline slot cost max(compute_j, load_{j+1}). Host-resident
// weights are re-streamed every token step at the size the placement
// stored them (compressed when its quantizer is set, which also charges
// their dequantization as compute), which is why inference is
// bound by the weight-transfer bandwidth of the slowest populated tier
// (§IV-B) and why the per-layer load-time series shows the MHA/FFN
// sawtooth of Fig. 7a.
//
// The simulator records per-layer load and compute times for every stage,
// from which the experiment harness derives every overlap figure (Figs. 5,
// 6, 8, 11, 12) and Table IV's ratios, plus the three paper metrics: TTFT,
// TBT and throughput (§III-C).
package sched

import (
	"fmt"

	"helmsim/internal/gpu"
	"helmsim/internal/memdev"
	"helmsim/internal/model"
	"helmsim/internal/placement"
	"helmsim/internal/stats"
	"helmsim/internal/trace"
	"helmsim/internal/units"
	"helmsim/internal/xfer"
)

// Stage distinguishes the two inference phases (§II-A).
type Stage int

// Inference stages.
const (
	StagePrefill Stage = iota
	StageDecode
)

// String names the stage.
func (s Stage) String() string {
	if s == StagePrefill {
		return "prefill"
	}
	return "decode"
}

// TierDevices binds placement tiers to concrete devices.
type TierDevices struct {
	// Disk backs placement.TierDisk; nil when the policy uses no storage.
	Disk memdev.Device
	// CPU backs placement.TierCPU.
	CPU memdev.Device
}

// Options configures a simulation run.
type Options struct {
	// Model is the served model.
	Model model.Config
	// Placement is the resolved weight placement. Its stored sizes are
	// what streams, and when its Quantizer is set every weight's
	// dequantization is charged as compute.
	Placement *placement.ModelPlacement
	// Devices maps tiers to devices.
	Devices TierDevices
	// GPU is the accelerator model.
	GPU *gpu.GPU
	// Engine is the transfer engine.
	Engine *xfer.Engine
	// Batch is the number of prompts served together.
	Batch int
	// PromptLen and GenLen are the input/output sequence lengths.
	PromptLen, GenLen int
	// GPUBatches is FlexGen's micro-batch count: the zig-zag schedule
	// computes GPUBatches micro-batches of Batch prompts each against one
	// weight load per layer per token step (§II-B: the schedule
	// "optimizes for throughput and weight reuse"). Values below 1 mean 1.
	// Large values usually require KVOnHost, since only the active
	// micro-batch's cache needs GPU residence then.
	GPUBatches int
	// KVOnHost places the KV cache on the CPU tier instead of GPU
	// memory: decode then streams each MHA layer's cache in and the new
	// token's K/V back out every step (FlexGen's KV offload mode). The
	// paper's evaluated configurations keep KV on the GPU.
	KVOnHost bool
	// Trace, when non-nil, records every transfer and kernel on the
	// copy/compute streams for timeline inspection.
	Trace *trace.Timeline
}

// LayerTiming is one layer's cost at one stage.
type LayerTiming struct {
	// Index and Type identify the layer.
	Index int
	Type  model.LayerType
	// Load is the weight-transfer time for this layer (0 if fully
	// GPU-resident).
	Load units.Duration
	// Compute is the GPU compute time for this layer.
	Compute units.Duration
	// KVLoad and KVStore are the KV-cache transfer times when the cache
	// lives on the host (Options.KVOnHost); zero otherwise.
	KVLoad, KVStore units.Duration
}

// StepTiming is one full pass over the layers (one generated token for
// every prompt of every micro-batch).
type StepTiming struct {
	// Stage is prefill for the first token, decode afterwards.
	Stage Stage
	// Ctx is the context length the attention kernels saw.
	Ctx int
	// Layers holds the per-layer timings.
	Layers []LayerTiming
	// Time is the pipelined wall time of the pass.
	Time units.Duration
}

// Result is a full generation run.
type Result struct {
	// Batch echoes the options.
	Batch int
	// Prefill is the first pass.
	Prefill StepTiming
	// Decode holds one pass per generated token after the first.
	Decode []StepTiming
	// TTFT is the time to first token: prologue load plus the prefill
	// pipeline (§III-C).
	TTFT units.Duration
	// TBT is the mean time between tokens over the decode passes, with
	// the first discarded (§III-C).
	TBT units.Duration
	// TotalTime is TTFT plus all decode passes.
	TotalTime units.Duration
	// Throughput is generated tokens per second over the whole process.
	Throughput float64
}

// runner holds the per-run derived state.
type runner struct {
	o      Options
	wsCPU  units.Bytes // bytes streamed from the CPU tier per pass
	wsDisk units.Bytes
	loads  []units.Duration // per-layer weight load times (stage-invariant)
	now    units.Duration   // timeline cursor for tracing
}

// kvTransfers computes one layer's host<->GPU KV traffic for a pass at the
// given stage/context when the cache lives on the host. Prefill writes the
// freshly produced cache out; decode streams the whole cache in and the
// new token's K/V back out. Non-MHA layers move nothing.
func (r *runner) kvTransfers(lp placement.LayerPlacement, stage Stage, ctx int) (in, out units.Duration, err error) {
	if !r.o.KVOnHost || lp.Layer.Type != model.LayerMHA {
		return 0, 0, nil
	}
	m := r.o.Model
	ws := m.KVBytesPerPrompt(ctx) * units.Bytes(r.o.Batch)
	if stage == StagePrefill {
		bytesOut := m.KVBytesPerPromptPerBlock(r.o.PromptLen) * units.Bytes(r.o.Batch)
		out, err = r.o.Engine.GPUToHost(r.o.Devices.CPU, bytesOut, ws)
		return 0, out, err
	}
	bytesIn := m.KVBytesPerPromptPerBlock(ctx-1) * units.Bytes(r.o.Batch)
	in, err = r.o.Engine.HostToGPU(xfer.Shard{Src: r.o.Devices.CPU, Bytes: bytesIn, WorkingSet: ws})
	if err != nil {
		return 0, 0, err
	}
	bytesOut := m.KVBytesPerPromptPerBlock(1) * units.Bytes(r.o.Batch)
	out, err = r.o.Engine.GPUToHost(r.o.Devices.CPU, bytesOut, ws)
	return in, out, err
}

// Run simulates one generation.
func Run(o Options) (*Result, error) {
	if err := validate(o); err != nil {
		return nil, err
	}
	r := &runner{o: o}
	r.wsCPU = o.Placement.TotalOn(placement.TierCPU)
	r.wsDisk = o.Placement.TotalOn(placement.TierDisk)
	if err := r.computeLoads(); err != nil {
		return nil, err
	}

	res := &Result{Batch: o.Batch}

	// The first layer's weights have nothing to overlap with (prologue).
	r.now = r.loads[0]
	if o.Trace != nil {
		o.Trace.Add(trace.Event{
			Stream: trace.StreamCopy, Name: "prologue load L0",
			Start: 0, Duration: r.loads[0],
			Args: map[string]string{"stage": "prologue"},
		})
	}
	prefill, err := r.pass(StagePrefill, o.PromptLen)
	if err != nil {
		return nil, err
	}
	res.Prefill = prefill
	res.TTFT = r.loads[0] + prefill.Time
	res.TotalTime = res.TTFT

	var tbts []float64
	for d := 1; d < o.GenLen; d++ {
		step, err := r.pass(StageDecode, o.PromptLen+d)
		if err != nil {
			return nil, err
		}
		res.Decode = append(res.Decode, step)
		res.TotalTime += step.Time
		tbts = append(tbts, step.Time.Seconds())
	}
	if len(tbts) > 0 {
		res.TBT = units.Duration(stats.MeanDiscardFirst(tbts))
	}
	if res.TotalTime > 0 {
		res.Throughput = float64(o.Batch*r.microBatches()*o.GenLen) / res.TotalTime.Seconds()
	}
	return res, nil
}

// validate sanity-checks the options.
func validate(o Options) error {
	if err := o.Model.Validate(); err != nil {
		return err
	}
	if o.Placement == nil {
		return fmt.Errorf("sched: nil placement")
	}
	if len(o.Placement.Layers) != o.Model.NumLayers() {
		return fmt.Errorf("sched: placement has %d layers, model has %d",
			len(o.Placement.Layers), o.Model.NumLayers())
	}
	if o.GPU == nil || o.Engine == nil {
		return fmt.Errorf("sched: nil GPU or transfer engine")
	}
	if o.Devices.CPU == nil {
		return fmt.Errorf("sched: nil CPU device")
	}
	if o.Batch <= 0 {
		return fmt.Errorf("sched: non-positive batch %d", o.Batch)
	}
	if o.GPUBatches < 0 {
		return fmt.Errorf("sched: negative micro-batch count %d", o.GPUBatches)
	}
	if o.PromptLen <= 0 || o.GenLen <= 0 {
		return fmt.Errorf("sched: non-positive sequence lengths (%d, %d)", o.PromptLen, o.GenLen)
	}
	// Every disk-tier byte needs a disk device.
	if o.Devices.Disk == nil {
		if n := o.Placement.TotalOn(placement.TierDisk); n > 0 {
			return fmt.Errorf("sched: placement puts %v on disk but no disk device configured", n)
		}
	}
	return nil
}

// computeLoads fills the per-layer weight load times. They do not depend on
// the stage or context: the same host-resident bytes stream every pass.
func (r *runner) computeLoads() error {
	layers := r.o.Placement.Layers
	r.loads = make([]units.Duration, len(layers))
	for i, lp := range layers {
		var shards []xfer.Shard
		if b := lp.BytesOn(placement.TierDisk); b > 0 {
			shards = append(shards, xfer.Shard{Src: r.o.Devices.Disk, Bytes: b, WorkingSet: r.wsDisk})
		}
		if b := lp.BytesOn(placement.TierCPU); b > 0 {
			shards = append(shards, xfer.Shard{Src: r.o.Devices.CPU, Bytes: b, WorkingSet: r.wsCPU})
		}
		t, err := r.o.Engine.LoadTime(shards)
		if err != nil {
			return fmt.Errorf("sched: layer %d load: %w", i, err)
		}
		r.loads[i] = t
	}
	return nil
}

// computeTime is one layer's GPU time at the given stage and context.
func (r *runner) computeTime(lp placement.LayerPlacement, stage Stage, ctx int) (units.Duration, error) {
	m := r.o.Model
	g := r.o.GPU
	batch := r.o.Batch

	// Tokens processed this pass and GEMM rows.
	qTokens := 1
	if stage == StagePrefill {
		qTokens = r.o.PromptLen
	}
	rows := batch * qTokens

	var total units.Duration
	// Dequantization: every compressed weight of the layer is expanded
	// before use, wherever it was stored.
	if r.o.Placement.Quantizer != nil {
		d, err := g.DequantTime(lp.TotalBytes())
		if err != nil {
			return 0, err
		}
		total += d
	}

	// The matmuls read the (dequantized) weights from HBM.
	rawBytes := lp.Layer.WeightBytes()
	switch lp.Layer.Type {
	case model.LayerInputEmbed:
		// Embedding lookup: stream the hidden states, negligible flops.
		t, err := g.MatmulTime(rows, float64(rows*m.Hidden), m.HiddenStateBytes(rows))
		if err != nil {
			return 0, err
		}
		total += t
	case model.LayerMHA:
		proj, err := g.MatmulTime(rows, m.MHAProjFlops(rows), rawBytes)
		if err != nil {
			return 0, err
		}
		attn, err := g.AttentionTime(batch, m.KVBytesPerPromptPerBlock(ctx), m.AttnFlopsPerPrompt(qTokens, ctx))
		if err != nil {
			return 0, err
		}
		total += proj + attn
	case model.LayerFFN:
		t, err := g.MatmulTime(rows, m.FFNFlops(rows), rawBytes)
		if err != nil {
			return 0, err
		}
		total += t
	case model.LayerOutputEmbed:
		// Only the last position per prompt needs logits.
		t, err := g.MatmulTime(batch, m.OutputFlops(batch), rawBytes)
		if err != nil {
			return 0, err
		}
		total += t
	default:
		return 0, fmt.Errorf("sched: unknown layer type %v", lp.Layer.Type)
	}
	return total, nil
}

// pass simulates one full pipeline pass (one token for the whole batch).
// Each slot runs three serial lanes in parallel — GPU compute of layer j,
// host->GPU transfers for layer j+1 (weights, plus its KV cache when
// offloaded), and GPU->host write-back of layer j's fresh KV — and the
// sync of Listing 1 ends the slot at the slowest lane.
func (r *runner) pass(stage Stage, ctx int) (StepTiming, error) {
	layers := r.o.Placement.Layers
	step := StepTiming{Stage: stage, Ctx: ctx, Layers: make([]LayerTiming, 0, len(layers))}

	// Precompute the pass's KV transfers so slot j can see layer j+1's.
	kvIn := make([]units.Duration, len(layers))
	kvOut := make([]units.Duration, len(layers))
	for j, lp := range layers {
		in, out, err := r.kvTransfers(lp, stage, ctx)
		if err != nil {
			return StepTiming{}, err
		}
		kvIn[j], kvOut[j] = in, out
	}

	nb := units.Duration(r.microBatches())
	for j, lp := range layers {
		c, err := r.computeTime(lp, stage, ctx)
		if err != nil {
			return StepTiming{}, err
		}
		// Micro-batching: one weight load serves nb compute repetitions
		// (and nb KV swaps when the cache lives on the host).
		totalC := c * nb
		step.Layers = append(step.Layers, LayerTiming{
			Index: lp.Layer.Index, Type: lp.Layer.Type,
			Load: r.loads[j], Compute: totalC, KVLoad: kvIn[j] * nb, KVStore: kvOut[j] * nb,
		})
		// Listing 1: compute(j) overlaps the transfers for j+1; the next
		// pass's first layer wraps around.
		next := (j + 1) % len(layers)
		h2d := r.loads[next] + kvIn[next]*nb
		slot := totalC
		if h2d > slot {
			slot = h2d
		}
		if out := kvOut[j] * nb; out > slot {
			slot = out
		}
		r.traceSlot(stage, lp, totalC, h2d, next)
		r.now += slot
		step.Time += slot
	}
	return step, nil
}

// microBatches normalizes the configured micro-batch count.
func (r *runner) microBatches() int {
	if r.o.GPUBatches < 1 {
		return 1
	}
	return r.o.GPUBatches
}

// traceSlot emits one pipeline slot's compute and host->GPU copy events.
// The KV write-back is not traced: it lives only in LayerTiming.KVStore.
func (r *runner) traceSlot(stage Stage, lp placement.LayerPlacement, c, h2d units.Duration, next int) {
	if r.o.Trace == nil {
		return
	}
	args := map[string]string{"stage": stage.String()}
	if c > 0 {
		r.o.Trace.Add(trace.Event{
			Stream: trace.StreamCompute,
			Name:   fmt.Sprintf("compute L%d (%v)", lp.Layer.Index, lp.Layer.Type),
			Start:  r.now, Duration: c, Args: args,
		})
	}
	if h2d > 0 {
		r.o.Trace.Add(trace.Event{
			Stream: trace.StreamCopy,
			Name:   fmt.Sprintf("load L%d", next),
			Start:  r.now, Duration: h2d, Args: args,
		})
	}
}

// ---------------------------------------------------------------------------
// Aggregations used by the experiment harness
// ---------------------------------------------------------------------------

// AvgByType averages a per-layer quantity over layers of one type.
func (s StepTiming) AvgByType(t model.LayerType, f func(LayerTiming) units.Duration) units.Duration {
	var sum units.Duration
	n := 0
	for _, lt := range s.Layers {
		if lt.Type == t {
			sum += f(lt)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / units.Duration(n)
}

// AvgLoad averages weight-transfer time over MHA and FFN layers — the bars
// of Figs. 5, 6, 8, 11 and 12.
func (s StepTiming) AvgLoad() units.Duration {
	return s.avgHidden(func(lt LayerTiming) units.Duration { return lt.Load })
}

// AvgCompute averages compute time over MHA and FFN layers — the lines of
// the same figures.
func (s StepTiming) AvgCompute() units.Duration {
	return s.avgHidden(func(lt LayerTiming) units.Duration { return lt.Compute })
}

// avgHidden averages f over the hidden (MHA+FFN) layers.
func (s StepTiming) avgHidden(f func(LayerTiming) units.Duration) units.Duration {
	var sum units.Duration
	n := 0
	for _, lt := range s.Layers {
		if lt.Type == model.LayerMHA || lt.Type == model.LayerFFN {
			sum += f(lt)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / units.Duration(n)
}

// OverlapRatios returns Table IV's two ratios for this pass: MHA compute /
// FFN load (layer i's compute overlapping layer i+1's transfer) and FFN
// compute / MHA load. A ratio of 1 is a perfectly balanced pipeline.
func (s StepTiming) OverlapRatios() (mhaOverFFNLoad, ffnOverMHALoad float64) {
	mhaC := s.AvgByType(model.LayerMHA, func(lt LayerTiming) units.Duration { return lt.Compute })
	ffnC := s.AvgByType(model.LayerFFN, func(lt LayerTiming) units.Duration { return lt.Compute })
	mhaL := s.AvgByType(model.LayerMHA, func(lt LayerTiming) units.Duration { return lt.Load })
	ffnL := s.AvgByType(model.LayerFFN, func(lt LayerTiming) units.Duration { return lt.Load })
	if ffnL > 0 {
		mhaOverFFNLoad = mhaC.Seconds() / ffnL.Seconds()
	}
	if mhaL > 0 {
		ffnOverMHALoad = ffnC.Seconds() / mhaL.Seconds()
	}
	return mhaOverFFNLoad, ffnOverMHALoad
}
