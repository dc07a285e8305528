package autotune_test

import (
	"fmt"

	"helmsim/internal/autotune"
	"helmsim/internal/core"
	"helmsim/internal/model"
)

// ExampleTune serves OPT-175B(c) on Optane under three service-level
// objectives (§VII future work) and lets the tuner pick placement and
// batch for each: a HeLM-like balanced placement for latency, All-CPU at
// the largest batch for throughput, and the same when the TBT bound
// admits it.
func ExampleTune() {
	for _, req := range []autotune.Request{
		{Objective: autotune.MinTBT},
		{Objective: autotune.MaxThroughput},
		{Objective: autotune.MaxThroughputUnderTBT, TBTBound: 6.3},
	} {
		req.Model, req.Memory, req.Compress = model.OPT175B(), core.MemNVDRAM, true
		res, err := autotune.Tune(req)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %s at batch %d, TTFT %.3fs, TBT %.3fs, %.3f tok/s (%d trials)\n",
			req.Objective, res.Best.PolicyName, res.Best.Batch,
			res.Best.TTFT.Seconds(), res.Best.TBT.Seconds(), res.Best.Throughput, len(res.Trials))
	}
	// Output:
	// min-TBT: helm at batch 1, TTFT 4.495s, TBT 4.371s, 0.228 tok/s (6 trials)
	// max-throughput: all-cpu at batch 54, TTFT 15.968s, TBT 6.142s, 8.169 tok/s (39 trials)
	// max-throughput-under-TBT: all-cpu at batch 54, TTFT 15.968s, TBT 6.142s, 8.169 tok/s (39 trials)
}
