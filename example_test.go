package helmsim_test

import (
	"fmt"

	"helmsim"
)

// Example serves OPT-30B out-of-core at the paper's largest batch (§IV-B)
// and prints the paper's three metrics — time to first token, time
// between tokens, throughput — on Optane (NVDRAM) beside all-DRAM.
// Half the weights stream from host memory every token, so Optane costs
// latency; Memory Mode hides the gap while the weights fit its DRAM
// cache.
func Example() {
	for _, mem := range []helmsim.MemoryConfig{helmsim.MemDRAM, helmsim.MemNVDRAM, helmsim.MemMemoryMode} {
		res, err := helmsim.Run(helmsim.Config{Model: helmsim.OPT30B(), Memory: mem, Batch: 32})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s TTFT %.3fs  TBT %.3fs  %.2f tok/s  (max batch %d)\n",
			mem, res.TTFT.Seconds(), res.TBT.Seconds(), res.Throughput, res.MaxBatch)
	}
	// Output:
	// DRAM       TTFT 1.682s  TBT 1.220s  25.77 tok/s  (max batch 38)
	// NVDRAM     TTFT 1.900s  TBT 1.526s  20.72 tok/s  (max batch 38)
	// MemoryMode TTFT 1.682s  TBT 1.220s  25.77 tok/s  (max batch 38)
}

// ExampleRun reproduces the paper's headline HeLM result: serving the
// compressed OPT-175B from Optane host memory with a compute-balanced
// placement.
func ExampleRun() {
	base, err := helmsim.Run(helmsim.Config{
		Model:    helmsim.OPT175B(),
		Memory:   helmsim.MemNVDRAM,
		Batch:    1,
		Compress: true,
	})
	if err != nil {
		panic(err)
	}
	helm, err := helmsim.Run(helmsim.Config{
		Model:    helmsim.OPT175B(),
		Memory:   helmsim.MemNVDRAM,
		Policy:   helmsim.HeLMPolicy(),
		Batch:    1,
		Compress: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("HeLM improves TBT by %.0f%%\n", (1-helm.TBT.Seconds()/base.TBT.Seconds())*100)
	// Output: HeLM improves TBT by 29%
}

// ExampleMaxBatch shows the GPU-budget arithmetic behind §V-C: freeing the
// accelerator of weights multiplies the admissible batch.
func ExampleMaxBatch() {
	baseline, err := helmsim.MaxBatch(helmsim.Config{
		Model: helmsim.OPT175B(), Memory: helmsim.MemNVDRAM, Batch: 1,
	})
	if err != nil {
		panic(err)
	}
	allCPU, err := helmsim.MaxBatch(helmsim.Config{
		Model: helmsim.OPT175B(), Memory: helmsim.MemNVDRAM,
		Policy: helmsim.AllCPUPolicy(), Batch: 1, Compress: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("baseline cap %d, All-CPU cap %d\n", baseline, allCPU)
	// Output: baseline cap 8, All-CPU cap 54
}

// ExampleRun_allCPUScaling sweeps All-CPU's batch against the baseline at
// its cap of 8 (§V-C). Weight transfer costs the same at any batch, so
// each extra prompt rides along nearly free until the KV cache fills the
// GPU.
func ExampleRun_allCPUScaling() {
	cfg := helmsim.Config{Model: helmsim.OPT175B(), Memory: helmsim.MemNVDRAM, Batch: 8, Compress: true}
	ref, err := helmsim.Run(cfg)
	if err != nil {
		panic(err)
	}
	cfg.Policy = helmsim.AllCPUPolicy()
	for _, b := range []int{1, 2, 4, 8, 16, 32, 44} {
		cfg.Batch = b
		res, err := helmsim.Run(cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("batch %d: %.2fx baseline b8\n", b, res.Throughput/ref.Throughput)
	}
	// Output:
	// batch 1: 0.13x baseline b8
	// batch 2: 0.25x baseline b8
	// batch 4: 0.50x baseline b8
	// batch 8: 1.00x baseline b8
	// batch 16: 1.98x baseline b8
	// batch 32: 3.88x baseline b8
	// batch 44: 5.23x baseline b8
}

// ExampleBaseline demonstrates the allocator imperfection of §V-A: the
// requested split is not the achieved one.
func ExampleBaseline() {
	pol := helmsim.BaselinePolicy(65, 15, 20)
	fmt.Println(pol.Name())
	// Output: baseline(65,15,20)
}
