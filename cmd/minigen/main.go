// Command minigen runs the executable inference engine end to end at
// laptop scale: synthesize a model, write its checkpoint to disk (raw FP16
// or 4-bit quantized), serve it out-of-core — every layer's weights read
// from the file per use — and generate tokens greedily through the
// continuous batcher, the serving path helmd runs.
//
// Usage:
//
//	minigen -hidden 64 -blocks 4 -gen 16
//	minigen -arch llama -quantize -ckpt /tmp/m.hlmc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"helmsim/internal/batch"
	"helmsim/internal/fault"
	"helmsim/internal/infer"
	"helmsim/internal/kvcache"
	"helmsim/internal/model"
	"helmsim/internal/tensor"
)

func main() {
	var (
		arch     = flag.String("arch", "opt", "architecture: opt, llama")
		hidden   = flag.Int("hidden", 64, "hidden dimension")
		heads    = flag.Int("heads", 4, "attention heads")
		blocks   = flag.Int("blocks", 4, "decoder blocks")
		vocab    = flag.Int("vocab", 512, "vocabulary size")
		seed     = flag.Int64("seed", 1, "weight seed")
		prompt   = flag.String("prompt", "1,2,3,4", "comma-separated prompt token ids")
		gen      = flag.Int("gen", 16, "tokens to generate")
		quantize = flag.Bool("quantize", false, "store the checkpoint 4-bit quantized")
		ckpt     = flag.String("ckpt", "", "checkpoint path (default: temp file)")
		seqs     = flag.Int("batch", 1, "sequences submitted together (weights fetched once per layer per step; 1 is a batch of one)")
		threads  = flag.Int("threads", 0, "tensor-kernel worker count (<=0: GOMAXPROCS); output is identical at any setting")

		faultRate = flag.Float64("fault-rate", 0, "inject transient read errors at this per-tensor probability (chaos mode)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault plan (reproducible chaos)")
		retries   = flag.Int("retries", 3, "max re-reads of a transiently failed weight fetch (at most 1+N reads; corrupt records are read once)")
		timeout   = flag.Duration("timeout", 0, "per-generation deadline (0 = none)")
	)
	flag.Parse()
	tensor.SetParallelism(*threads)
	// Ctrl-C (or SIGTERM) cancels the generation context: the engine
	// checks it between forward passes, so interruption is prompt and the
	// checkpoint teardown still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, *arch, *hidden, *heads, *blocks, *vocab, *seed, *prompt, *gen, *quantize, *ckpt, *seqs,
		*faultRate, *faultSeed, *retries, *timeout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "minigen: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "minigen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, stdout io.Writer, arch string, hidden, heads, blocks, vocab int, seed int64, promptCSV string, gen int, quantize bool, ckptPath string, seqs int,
	faultRate float64, faultSeed int64, retries int, timeout time.Duration) error {
	if seqs < 1 {
		return fmt.Errorf("non-positive batch %d", seqs)
	}
	cfg, err := model.Mini(arch, hidden, heads, blocks, vocab)
	if err != nil {
		return err
	}

	var prompt []int
	for _, part := range strings.Split(promptCSV, ",") {
		tok, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("prompt token %q: %v", part, err)
		}
		prompt = append(prompt, tok)
	}

	if ckptPath == "" {
		dir, err := os.MkdirTemp("", "minigen")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ckptPath = filepath.Join(dir, cfg.Name+".hlmc")
	}
	if err := infer.SynthesizeCheckpoint(ckptPath, cfg, seed, quantize); err != nil {
		return err
	}
	st, err := os.Stat(ckptPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d params, checkpoint %s (%d bytes, quantized=%v)\n",
		cfg.Name, cfg.ParamCount(), ckptPath, st.Size(), quantize)

	store, err := infer.OpenFileStore(ckptPath)
	if err != nil {
		return err
	}
	defer store.Close()

	// Chaos mode: slot a seeded fault injector between the checkpoint
	// store and the engine; foreground retries absorb what the injector
	// throws.
	var weightSrc infer.WeightStore = store
	var faults *fault.Store
	if faultRate > 0 {
		faults, err = fault.NewStore(store, fault.Plan{Seed: faultSeed, TransientRate: faultRate})
		if err != nil {
			return err
		}
		weightSrc = faults
	}

	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// The batcher stacks every running sequence into one step, so they
	// share one weight fetch per layer per step (vary the prompts slightly
	// so the outputs differ). A solo generation is a batch of one. The
	// engine prefetches layer L+1 while layer L computes, as helmd's does.
	start := time.Now()
	se, err := infer.NewStepEnginePrefetched(ctx, cfg, weightSrc, infer.Retry{Max: retries})
	if err != nil {
		return err
	}
	defer se.Close()
	pages := seqs * kvcache.PagesFor(len(prompt)+gen, kvcache.DefaultPageTokens)
	pool, err := kvcache.NewPool(cfg, pages, kvcache.DefaultPageTokens, true)
	if err != nil {
		return err
	}
	b := batch.New(se, pool, batch.Options{MaxSeqs: seqs})
	outputs := make([][]int, seqs)
	errs := make([]error, seqs)
	var wg sync.WaitGroup
	for i := range outputs {
		p := append([]int(nil), prompt...)
		p[len(p)-1] = (p[len(p)-1] + i) % vocab
		wg.Add(1)
		go func() {
			defer wg.Done()
			outputs[i], errs[i] = b.Submit(ctx, p, gen)
		}()
	}
	wg.Wait()
	b.Stop()
	if err := errors.Join(append(errs, pool.Conserved())...); err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "prompt:    %v (batch %d)\n", prompt, seqs)
	for i, out := range outputs {
		fmt.Fprintf(stdout, "seq %d:     %v\n", i, out)
	}
	fmt.Fprintf(stdout, "served out-of-core: %d tensor reads from disk, %.1f tok/s wall (threads=%d)\n",
		store.Reads(), float64(gen*seqs)/elapsed.Seconds(), tensor.Parallelism())
	hits, misses := se.PrefetchStats()
	byWorker, byConsumer := se.LaneStats()
	fmt.Fprintf(stdout, "layer prefetch: %d background hits, %d foreground misses; %d tensors fetched by pool workers, %d by the engine at the join\n",
		hits, misses, byWorker, byConsumer)
	if faults != nil {
		st := faults.Stats()
		fmt.Fprintf(stdout, "chaos: %d/%d reads failed transiently (seed %d), %d degraded fetches, output unharmed\n",
			st.Transients, st.Accesses, faultSeed, se.DegradedFetches())
	}
	return nil
}
