// Package kvcache manages the key/value cache of in-flight prompts and the
// GPU memory budget that caps the batch size. The budget arithmetic is the
// mechanism behind the paper's headline batch numbers: with FlexGen's
// baseline placement the GPU-resident weights squeeze the KV budget down to
// a batch of 8 for OPT-175B, while All-CPU frees the whole accelerator for
// KV and reaches 44 (§V-C).
package kvcache

import (
	"fmt"

	"helmsim/internal/calib"
	"helmsim/internal/model"
	"helmsim/internal/units"
)

// Budget describes the GPU memory available for per-prompt state.
type Budget struct {
	// Capacity is the GPU memory size.
	Capacity units.Bytes
	// WeightBytes is the stored size of GPU-resident weights (compressed
	// size when quantization is on).
	WeightBytes units.Bytes
	// StagingBytes is the weight staging allocation: the zig-zag schedule
	// double-buffers the largest host-resident layer transfer.
	StagingBytes units.Bytes
	// Reserved is framework overhead (CUDA context, cuBLAS workspace).
	Reserved units.Bytes
}

// DefaultBudget builds a budget for the A100 with the calibrated reserve.
func DefaultBudget(weightBytes, stagingBytes units.Bytes) Budget {
	return Budget{
		Capacity:     calib.GPUMemoryCapacity,
		WeightBytes:  weightBytes,
		StagingBytes: stagingBytes,
		Reserved:     calib.GPUReservedBytes,
	}
}

// Free reports the bytes left for per-prompt state.
func (b Budget) Free() units.Bytes {
	f := b.Capacity - b.WeightBytes - b.StagingBytes - b.Reserved
	if f < 0 {
		return 0
	}
	return f
}

// PerPromptBytes is the GPU footprint of one prompt: its whole-model KV
// cache at full context (prompt + generation) plus activation workspace.
func PerPromptBytes(cfg model.Config, promptLen, genLen int) units.Bytes {
	ctx := promptLen + genLen
	kv := cfg.KVBytesPerPrompt(ctx)
	act := units.Bytes(calib.ActivationBytesPerPromptFactor) *
		units.Bytes(promptLen) * units.Bytes(cfg.Hidden) * units.Bytes(cfg.DTypeBytes)
	return kv + act
}

// MaxBatch solves for the largest batch whose per-prompt state fits the
// budget.
func MaxBatch(cfg model.Config, promptLen, genLen int, b Budget) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if promptLen <= 0 || genLen <= 0 {
		return 0, fmt.Errorf("kvcache: non-positive sequence lengths (%d, %d)", promptLen, genLen)
	}
	per := PerPromptBytes(cfg, promptLen, genLen)
	if per <= 0 {
		return 0, fmt.Errorf("kvcache: non-positive per-prompt footprint")
	}
	return int(b.Free() / per), nil
}
