package helmsim

import (
	"io"

	"helmsim/internal/checkpoint"
	"helmsim/internal/fault"
	"helmsim/internal/infer"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// This file re-exports the executable inference engine: real forward
// passes over float32 tensors with KV-cached incremental decoding, for
// laptop-scale models. The simulator answers the paper's performance
// questions; this engine grounds the same computation in executable
// numerics, including serving weights out-of-core from a checkpoint file.

// InferenceEngine executes a decoder-only transformer (OPT or LLaMA
// architecture) incrementally.
type InferenceEngine = infer.Engine

// WeightStore provides a layer's named tensors on demand.
type WeightStore = infer.WeightStore

// NewInferenceEngine builds an engine over a model and weight store.
var NewInferenceEngine = infer.New

// RandomWeights synthesizes a complete seeded weight set for a model.
var RandomWeights = infer.RandomWeights

// QuantizeWeights compresses a raw weight store to 4-bit group-wise
// tensors that are dequantized per use (FlexGen's serving mode).
func QuantizeWeights(m Model, src *infer.MemStore) (*infer.QuantStore, error) {
	return infer.Quantize(m, src, quant.Default())
}

// BatchEngine decodes several sequences in lockstep, fetching (and
// dequantizing) each layer's weights once per step regardless of batch
// size — the executable counterpart of the zig-zag schedule's weight
// reuse (§II-B).
type BatchEngine = infer.BatchEngine

// NewBatchEngine builds a lockstep batch engine.
var NewBatchEngine = infer.NewBatch

// OpenWeightFile serves weights straight from an indexed checkpoint file —
// genuine out-of-core operation.
var OpenWeightFile = infer.OpenFileStore

// OpenWeightFileMmap is OpenWeightFile through an mmap view: tensor
// payloads decode straight out of the page cache with no read syscall
// and no payload copy (per-record CRCs are still verified). On
// platforms without mmap it behaves exactly like OpenWeightFile.
var OpenWeightFileMmap = infer.OpenFileStoreMmap

// ZeroCopyWeightStore is the optional WeightStore extension serving
// read-only views of the store's own storage (no per-fetch copy);
// DecodeIntoWeightStore is the optional extension decoding into a
// caller-provided buffer so decode output buffers can be recycled.
type (
	ZeroCopyWeightStore   = infer.ViewStore
	DecodeIntoWeightStore = infer.IntoStore
)

// WriteWeightFile serializes a model's weights into a checkpoint,
// optionally 4-bit quantized.
func WriteWeightFile(w io.Writer, m Model, src *infer.MemStore, quantized bool) error {
	var qc *quant.Config
	if quantized {
		c := quant.Default()
		qc = &c
	}
	return infer.WriteCheckpoint(w, m, src, qc)
}

// PrefetchStore wraps a WeightStore so layer L+1 is fetched (and, where
// the store can only decode, dequantized) by the kernel pool's idle
// workers while layer L computes — the executable form of the zig-zag
// schedule's load/compute overlap (Listing 1). It has one consumer: the engine built over it. Close it
// (or that engine) when done.
type PrefetchStore = infer.PrefetchStore

// NewPrefetchStore builds a prefetching wrapper over a backing store,
// under a cancellation context and a foreground retry policy (the zero
// RetryPolicy: no retries).
var NewPrefetchStore = infer.NewPrefetch

// NewPrefetchedBatchEngine builds a lockstep batch engine with the
// prefetch pipeline already stacked in front of the backing store; a
// batch of one is the prefetched solo engine. A failed background
// prefetch degrades to a foreground fetch retried under the policy
// (counted by DegradedFetches) instead of failing the generation.
var NewPrefetchedBatchEngine = infer.NewBatchPrefetched

// SetInferenceParallelism sets the tensor-kernel worker count (n <= 0
// resets to GOMAXPROCS) and returns the previous setting. Kernel outputs
// are bit-identical at every setting.
var SetInferenceParallelism = tensor.SetParallelism

// --- Resilience ---------------------------------------------------------

// RetryPolicy bounds foreground retries of transiently failed weight
// fetches, with deterministic backoff through an injectable clock.
type RetryPolicy = infer.Retry

// ResilientStore wraps a WeightStore with bounded retries: transient
// read errors are retried under the policy, permanent errors (corruption,
// closed checkpoint, missing tensor) surface immediately.
type ResilientStore = infer.ResilientStore

// NewResilientStore wraps a backing store with a retry policy.
var NewResilientStore = infer.NewResilient

// FaultPlan is a seeded, reproducible fault-injection plan: transient
// read errors, payload bit flips, and latency spikes at configured
// rates or exact access indices.
type FaultPlan = fault.Plan

// FaultStore wraps a WeightStore with fault injection under a plan —
// the chaos harness for the out-of-core serving path.
type FaultStore = fault.Store

// NewFaultStore builds a fault-injecting store wrapper.
var NewFaultStore = fault.NewStore

// NewFaultReaderAt wraps an io.ReaderAt with fault injection, for
// slotting storage-tier corruption under a checkpoint index.
var NewFaultReaderAt = fault.NewReaderAt

// IsTransientFault classifies an error as retryable.
var IsTransientFault = fault.IsTransient

// ErrCheckpointCorrupt is returned (wrapped) whenever checkpoint bytes
// fail CRC or structural validation — corrupt weights are never served.
var ErrCheckpointCorrupt = checkpoint.ErrCorrupt

// ErrCheckpointClosed is returned (wrapped) by reads against a closed
// checkpoint index.
var ErrCheckpointClosed = checkpoint.ErrClosed
