// Package serve runs the paper's measurement protocol on top of the core
// engine (§III-C): prompts are grouped into fixed-size batches, each
// batch executes the full prefill+decode schedule, and the reported
// TTFT/TBT are arithmetic means across runs with the first run
// discarded to hide cold-start effects. It also holds the admission
// policy the simulated queues and the live daemon share.
package serve

import (
	"fmt"

	"helmsim/internal/core"
	"helmsim/internal/runcache"
	"helmsim/internal/units"
)

// Metrics is one configuration's figures under the paper's protocol.
type Metrics struct {
	// TTFT and TBT are the discard-first means across runs.
	TTFT, TBT units.Duration
	// Throughput is generated tokens per second.
	Throughput float64
}

// PaperProtocol measures cfg under §III-B/C: batches of cfg.Batch
// 128-token prompts, each batch the full schedule, TTFT and TBT
// averaged over the runs after the first. Every batch is the same
// deterministic RunConfig — the simulator never reads prompt tokens —
// so every run is the same solve, the discard-first means are that
// solve's figures, and it runs once.
func PaperProtocol(cfg core.RunConfig) (Metrics, error) {
	if cfg.Batch <= 0 {
		return Metrics{}, fmt.Errorf("serve: non-positive batch size %d", cfg.Batch)
	}
	res, err := runcache.Run(cfg)
	if err != nil {
		return Metrics{}, fmt.Errorf("serve: %w", err)
	}
	m := Metrics{TTFT: res.TTFT, TBT: res.TBT}
	if res.TotalTime > 0 {
		m.Throughput = float64(cfg.Batch*genLen(cfg)) / res.TotalTime.Seconds()
	}
	return m, nil
}

// genLen resolves the effective generation length of a run config.
func genLen(rc core.RunConfig) int {
	if rc.GenLen > 0 {
		return rc.GenLen
	}
	return 21
}
