package infer

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"helmsim/internal/kvcache"
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

// benchStores builds the two serving tiers over one weight set: raw
// in-memory and an on-disk 4-bit checkpoint.
func benchStores(tb testing.TB, mc model.Config) (mem *MemStore, fs *FileStore) {
	tb.Helper()
	raw, err := RandomWeights(mc, 3, 0.05)
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
	return raw, fs
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
			var se *StepEngine
			var err error
			if prefetched {
				se, err = NewStepEnginePrefetched(context.Background(), mc, store, Retry{})
			} else {
				se, err = NewStepEngine(mc, store)
			}
			if err != nil {
				b.Fatal(err)
			}
			if _, err := lockstep(context.Background(), se, prompts, gen); err != nil {
				b.Fatal(err)
			}
			se.Close()
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1, false) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0), true) })
}

func BenchmarkLockstepMemStore(b *testing.B) {
	mem, _ := benchStores(b, benchModel())
	benchGenerate(b, mem)
}

func BenchmarkLockstepFileStore(b *testing.B) {
	_, fs := benchStores(b, benchModel())
	benchGenerate(b, fs)
}

// benchOOC is bench/'s out-of-core model: the shapes internal/tensor's
// BenchmarkGemvSplit takes its GEMVs from.
func benchOOC() model.Config {
	return model.Config{Name: "bench-ooc", Hidden: 384, Heads: 6, Blocks: 6, Vocab: 2048, MaxSeq: 256, DTypeBytes: 2}
}

// atWorkers runs body as sub-benchmarks p1 (one worker) and pN
// (GOMAXPROCS workers).
func atWorkers(b *testing.B, body func(b *testing.B)) {
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(map[bool]string{true: "p1", false: "pN"}[par == 1], func(b *testing.B) {
			defer tensor.SetParallelism(tensor.SetParallelism(par))
			body(b)
		})
		if par == 1 && runtime.GOMAXPROCS(0) == 1 {
			return
		}
	}
}

// One whole resident decode step on bench-ooc after a 128-token prompt:
// the stream of forks (37 GEMVs, 6 attention cores, 6 activations) the
// pool's hot budget is sized to keep a worker awake through.
func BenchmarkDecodeStepSplit(b *testing.B) {
	cfg := benchOOC()
	raw, err := RandomWeights(cfg, 5, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	atWorkers(b, func(b *testing.B) {
		se, err := NewStepEngine(cfg, raw)
		if err != nil {
			b.Fatal(err)
		}
		prompt := make([]int, 128)
		for i := range prompt {
			prompt[i] = 1 + i%97
		}
		step, seq := decodeStepper(b, cfg, se, prompt, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if seq.Pos == cfg.MaxSeq {
				// Context full: rewind to the end of the prompt.
				seq.Pos = len(prompt)
				for _, kv := range seq.KV {
					kv.Truncate(seq.Pos)
				}
			}
			step()
		}
	})
}

// A 128-token prefill of bench-ooc's shapes as a LLaMA (three KV heads,
// gated FFN of 1024) on f32 weights: where RoPE's cost shows, since no
// bench workload runs LLaMA.
func BenchmarkLlamaPrefill(b *testing.B) {
	cfg := benchOOC().WithLlama(3, 1024)
	raw, err := RandomWeights(cfg, 5, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(cfg, raw)
	if err != nil {
		b.Fatal(err)
	}
	prompt := make([]int, 128)
	for i := range prompt {
		prompt[i] = 1 + i%97
	}
	atWorkers(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Reset()
			if _, err := e.Forward(prompt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A 128-token prefill over bench-ooc's mmap'd 4-bit checkpoint on the
// prefetched engine: the step ooc_latency's TTFT is made of. Its profile
// is where the prefill's shares (the register tiles, attention, GELU)
// are read from.
func BenchmarkFilePrefill(b *testing.B) {
	cfg := benchOOC()
	path := writeTestCheckpoint(b, cfg, 5)
	prompt := make([]int, 128)
	for i := range prompt {
		prompt[i] = 1 + i%97
	}
	b.Run(cfg.Name, func(b *testing.B) {
		atWorkers(b, func(b *testing.B) {
			fs, err := OpenFileStoreMmap(path)
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			se, err := NewStepEnginePrefetched(context.Background(), cfg, fs, Retry{})
			if err != nil {
				b.Fatal(err)
			}
			defer se.Close()
			seq := &StepSeq{KV: NewBlockCaches(cfg)}
			seqs := []*StepSeq{seq}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seq.Tokens, seq.Pos = prompt, 0
				for _, kv := range seq.KV {
					kv.Truncate(0)
				}
				if _, err := se.Step(seqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// benchTiny is bench/'s fleet model — what helmd and helmgw boot: too
// small for any decode kernel to fork, so the load lane gets no worker.
func benchTiny() model.Config {
	return model.Config{Name: "bench-tiny", Hidden: 64, Heads: 4, Blocks: 4, Vocab: 512, MaxSeq: 2048, DTypeBytes: 2}
}

// One decode step after the prompt over the mmap'd 4-bit checkpoint, on
// the plain file engine and on the prefetched one — the engine the
// daemons and ooc_latency build. The load lane earns its code when the
// prefetched row is under the plain one at GOMAXPROCS workers and not
// over it at one (run with GOMAXPROCS=1 for the one-processor row);
// worker-share is LaneStats' byWorker / (byWorker + byConsumer).
func BenchmarkFileDecodeStep(b *testing.B) {
	for _, cfg := range []model.Config{benchTiny(), benchOOC()} {
		for _, raw := range []bool{false, true} {
			benchFileDecodeStep(b, cfg, raw)
		}
	}
}

// benchFileDecodeStep is BenchmarkFileDecodeStep's rows for one model,
// over its 4-bit checkpoint or, when raw is set, its raw-fp16 one (the
// checkpoint the daemons synthesize by default): every matrix then
// decodes into the loader's recycled buffers, where a 4-bit one is a
// packed view.
func benchFileDecodeStep(b *testing.B, cfg model.Config, raw bool) {
	name, path := cfg.Name, ""
	if raw {
		w, err := RandomWeights(cfg, 5, 0.08)
		if err != nil {
			b.Fatal(err)
		}
		name, path = name+"-raw", writeCheckpointFile(b, cfg, w, false)
	} else {
		path = writeTestCheckpoint(b, cfg, 5)
	}
	for _, prefetched := range []bool{false, true} {
		b.Run(name+map[bool]string{false: "/plain", true: "/prefetched"}[prefetched], func(b *testing.B) {
			fs, err := OpenFileStoreMmap(path)
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			var se *StepEngine
			if prefetched {
				se, err = NewStepEnginePrefetched(context.Background(), cfg, fs, Retry{})
			} else {
				se, err = NewStepEngine(cfg, fs)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer se.Close()
			prompt := make([]int, 32)
			for i := range prompt {
				prompt[i] = 1 + i%97
			}
			step, seq := decodeStepper(b, cfg, se, prompt, 3)
			w0, c0 := se.LaneStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if seq.Pos == cfg.MaxSeq {
					seq.Pos = len(prompt)
					for _, kv := range seq.KV {
						kv.Truncate(seq.Pos)
					}
				}
				step()
			}
			if w, c := se.LaneStats(); w+c > w0+c0 {
				b.ReportMetric(float64(w-w0)/float64(w+c-w0-c0), "worker-share")
			}
		})
	}
}

// Decode attention as ooc_latency's steps run it: bench-ooc's six
// blocks, one query row of six heads 64 wide, over contexts of 128 to
// 148 cached positions (one more each op, then around again), on the
// caches the engines attend over — the solo engine's blockCache and the
// batcher's kvcache.Pool view, pages of sixteen — at one worker and at
// GOMAXPROCS. An op is one decode step's six Attend calls; µs/step is
// the attention time a step spends. minAttendWork is set from it.
func BenchmarkAttendDecode(b *testing.B) {
	cfg := benchOOC()
	const lo, hi = 128, 148
	rng := rand.New(rand.NewSource(9))
	rows := make([][2][]float32, hi+1)
	for p := range rows {
		for i := range rows[p] {
			rows[p][i] = make([]float32, cfg.KVWidth())
			for d := range rows[p][i] {
				rows[p][i][d] = float32(rng.NormFloat64())
			}
		}
	}
	fill := func(b *testing.B, kv []KVBlock) []KVBlock {
		for _, c := range kv {
			for _, r := range rows {
				if err := c.AppendRow(r[0], r[1]); err != nil {
					b.Fatal(err)
				}
			}
		}
		return kv
	}
	caches := []struct {
		name string
		make func(b *testing.B) []KVBlock
	}{
		{"block", func(b *testing.B) []KVBlock { return fill(b, NewBlockCaches(cfg)) }},
		{"pool", func(b *testing.B) []KVBlock {
			pool, err := kvcache.NewPool(cfg, cfg.MaxSeq/16, 16, false)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pool.Admit(1, make([]int, hi+1)); err != nil {
				b.Fatal(err)
			}
			kv := make([]KVBlock, cfg.Blocks)
			for blk := range kv {
				kv[blk] = pool.View(1, blk, 0)
			}
			return fill(b, kv)
		}},
	}
	q, out := tensor.New(1, cfg.Hidden), tensor.New(1, cfg.Hidden)
	for i := range q.Data {
		q.Data[i] = float32(rng.NormFloat64())
	}
	for _, c := range caches {
		b.Run(c.name, func(b *testing.B) {
			kv := c.make(b)
			atWorkers(b, func(b *testing.B) {
				sc := tensor.NewAttendScratch(cfg.MaxSeq)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pos := lo + i%(hi-lo)
					for _, blk := range kv {
						clear(out.Data)
						tensor.Attend(q, blk, pos, cfg.Heads, 1, out, &sc)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "µs/step")
			})
		})
	}
}
