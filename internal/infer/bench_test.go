package infer

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// benchModel is big enough for the parallel kernel paths to engage but
// small enough for -benchtime=1x CI smoke runs.
func benchModel() model.Config {
	return model.Config{
		Name: "OPT-bench", Hidden: 256, Heads: 4, Blocks: 4,
		Vocab: 1024, MaxSeq: 128, DTypeBytes: 2,
	}
}

// benchStores builds the three serving tiers over one weight set: raw
// in-memory, quantized (per-use dequant), and an on-disk checkpoint.
func benchStores(tb testing.TB, mc model.Config) (mem *MemStore, qs *QuantStore, fs *FileStore) {
	tb.Helper()
	raw, err := RandomWeights(mc, 3, 0.05)
	if err != nil {
		tb.Fatal(err)
	}
	qs, err = Quantize(mc, raw, quant.Default())
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	path := filepath.Join(dir, "bench.hlmc")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	qc := quant.Default()
	if err := WriteCheckpoint(f, mc, raw, &qc); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	fs, err = OpenFileStore(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fs.Close() })
	return raw, qs, fs
}

// benchGenerate runs lockstep batched generation per iteration, at
// parallelism 1 (serial engine) and GOMAXPROCS+prefetch (the overlap
// pipeline) as sub-benchmarks.
func benchGenerate(b *testing.B, store WeightStore) {
	mc := benchModel()
	batch, gen := 4, 4
	if testing.Short() {
		gen = 2
	}
	prompts := make([][]int, batch)
	for i := range prompts {
		prompts[i] = []int{1 + i, 2, 3}
	}
	run := func(b *testing.B, par int, prefetched bool) {
		prev := tensor.SetParallelism(par)
		defer tensor.SetParallelism(prev)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var be *BatchEngine
			var err error
			if prefetched {
				be, err = NewBatchPrefetched(context.Background(), mc, store, batch, Retry{})
			} else {
				be, err = NewBatch(mc, store, batch)
			}
			if err != nil {
				b.Fatal(err)
			}
			if _, err := be.GenerateBatch(prompts, gen); err != nil {
				b.Fatal(err)
			}
			be.Close()
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1, false) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0), true) })
}

func BenchmarkGenerateBatchMemStore(b *testing.B) {
	mem, _, _ := benchStores(b, benchModel())
	benchGenerate(b, mem)
}

func BenchmarkGenerateBatchQuantStore(b *testing.B) {
	_, qs, _ := benchStores(b, benchModel())
	benchGenerate(b, qs)
}

func BenchmarkGenerateBatchFileStore(b *testing.B) {
	_, _, fs := benchStores(b, benchModel())
	benchGenerate(b, fs)
}
