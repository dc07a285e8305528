package infer

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// weightCount is the total tensor count across the model's layers — the
// per-step backing-store fetch count of a lockstep engine.
func weightCount(cfg model.Config) int {
	n := 0
	for _, l := range cfg.Layers() {
		n += len(l.Weights)
	}
	return n
}

// Steady-state single-token decode over an in-memory store must not
// touch the heap at all: activations come from the engine's arena, KV
// rows land in preallocated slabs, scores use the engine's scratch row,
// and MemStore serves zero-copy views. Parallel kernel dispatch is
// pinned to 1 because the worker handoff allocates closures; outputs
// are bit-identical at any setting, so the single-worker measurement
// bounds the engine's own behavior.
func TestDecodeAllocsMemStoreZero(t *testing.T) {
	for _, cfg := range []model.Config{tinyOPT(), tinyLlama()} {
		prev := tensor.SetParallelism(1)
		step := soloDecodeStep(t, newEngine(t, cfg, 11))
		allocs := testing.AllocsPerRun(10, step)
		tensor.SetParallelism(prev)
		if allocs != 0 {
			t.Errorf("%s: steady-state decode allocates %.1f objects/token, want 0", cfg.Name, allocs)
		}
	}
}

// soloDecodeStep prefills a three-token prompt and returns the engine's
// single-token decode step, already run three times so the arena, KV
// slabs, retained-logits list and any recycled weight buffers have
// reached their steady-state shapes.
func soloDecodeStep(t *testing.T, e *Engine) func() {
	t.Helper()
	if _, err := e.Forward([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	step := func() {
		e.stepTok[0] = 5
		if _, err := e.Forward(e.stepTok[:]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	return step
}

// The lockstep engine reads a resident MemStore through its layer memo;
// the memo must take the store's zero-copy views there, not the copying
// Tensor path (which cost a full copy of the model per token). No
// objects per step means no bytes per step.
func TestStepDecodeAllocsMemStoreZero(t *testing.T) {
	cfg := tinyOPT()
	raw, err := RandomWeights(cfg, 13, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStepEngine(cfg, raw)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := stepDecodeAllocs(t, cfg, se); allocs != 0 {
		t.Errorf("resident lockstep decode allocates %.1f objects/step, want 0", allocs)
	}
}

// stepDecodeAllocs prefills a three-token prompt, warms the engine up
// and reports steady-state allocations per single-token step at one
// kernel worker.
func stepDecodeAllocs(t *testing.T, cfg model.Config, se *StepEngine) float64 {
	t.Helper()
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	seq := &StepSeq{Tokens: []int{1, 2, 3}, Pos: 0, KV: NewBlockCaches(cfg)}
	seqs := []*StepSeq{seq}
	var tok [1]int
	step := func() {
		if _, err := se.Step(seqs); err != nil {
			t.Fatal(err)
		}
		seq.Pos += len(seq.Tokens)
		tok[0] = 7
		seq.Tokens = tok[:]
	}
	for i := 0; i < 4; i++ {
		step()
	}
	return testing.AllocsPerRun(10, step)
}

// A lockstep engine over a quantized store stops allocating once the
// layer-memo's recycled buffers have seen one full layer cycle: every
// dequantization decodes into the buffer evicted two layers earlier.
func TestStepDecodeAllocsQuantRecycledZero(t *testing.T) {
	cfg := tinyOPT()
	raw, err := RandomWeights(cfg, 13, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := Quantize(cfg, raw, quant.Default())
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStepEngine(cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := stepDecodeAllocs(t, cfg, se); allocs != 0 {
		t.Errorf("quant lockstep decode allocates %.1f objects/step, want 0", allocs)
	}
}

// File-backed decode cannot be allocation-free (every fetch formats a
// record key, and the non-mmap path reads each payload into a fresh
// buffer), but its budget is pinned: a handful of objects per weight
// fetch, nothing proportional to tokens or context length. A regression
// that reintroduces per-activation allocation blows well past this.
func TestStepDecodeAllocsFileBudget(t *testing.T) {
	cfg := tinyOPT()
	path := writeTestCheckpoint(t, cfg, 13)
	budget := 6.0 * float64(weightCount(cfg))
	for _, tc := range []struct {
		name string
		open func(string) (*FileStore, error)
	}{
		{"readat", OpenFileStore},
		{"mmap", OpenFileStoreMmap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := tc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			se, err := NewStepEngine(cfg, fs)
			if err != nil {
				t.Fatal(err)
			}
			if allocs := stepDecodeAllocs(t, cfg, se); allocs > budget {
				t.Errorf("file decode (%s) allocates %.1f objects/step, budget %.0f", tc.name, allocs, budget)
			}
		})
	}
}

// The solo engine over an mmap'd checkpoint fits the same per-fetch
// budget: New reads a decode-into store through a layer memo, so decode
// buffers are recycled instead of allocated per tensor per token — and
// the store still sees each tensor exactly once per token.
func TestDecodeAllocsFileBudget(t *testing.T) {
	cfg := tinyOPT()
	fs, err := OpenFileStoreMmap(writeTestCheckpoint(t, cfg, 13))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	e, err := New(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	step := soloDecodeStep(t, e)
	before := fs.Reads()
	step()
	if got, want := fs.Reads()-before, weightCount(cfg); got != want {
		t.Errorf("solo decode reads %d tensors/token, want %d", got, want)
	}
	budget := 6.0 * float64(weightCount(cfg))
	if allocs := testing.AllocsPerRun(10, step); allocs > budget {
		t.Errorf("solo file decode allocates %.1f objects/token, budget %.0f", allocs, budget)
	}
	// The object budget would also admit one fresh slice per tensor; the
	// bytes show whether the weights themselves are being reallocated.
	var modelBytes uint64
	for _, l := range cfg.Layers() {
		for _, w := range l.Weights {
			modelBytes += 4 * uint64(w.Elems)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const tokens = 10
	for i := 0; i < tokens; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	if perToken := (m1.TotalAlloc - m0.TotalAlloc) / tokens; perToken > modelBytes/4 {
		t.Errorf("solo file decode allocates %d B/token against %d B of weights: decode buffers are not recycled", perToken, modelBytes)
	}
}

// TopK keeps its sort and probability scratch between calls, so
// steady-state sampling allocates nothing.
func TestTopKSampleAllocsZero(t *testing.T) {
	s, err := NewTopK(8, 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	logits := tensor.New(1, 64)
	for i := range logits.Data {
		logits.Data[i] = float32((i * 37 % 64)) / 64
	}
	if _, err := s.Sample(logits); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Sample(logits); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("TopK.Sample allocates %.1f objects/call, want 0", allocs)
	}
}

// Prefetching and its buffer recycling are pure performance mechanisms:
// with recycling on (a backing that decodes into caller buffers) or off
// (one that only serves Tensor), over read and mmap file stores, the
// generated tokens must be byte-identical to the plain (unprefetched)
// engine's.
func TestPrefetchRecycleIdentity(t *testing.T) {
	cfg := tinyLlama()
	path := writeTestCheckpoint(t, cfg, 29)
	prompt := []int{3, 11, 5}
	const n = 10

	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	plain, err := New(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Generate(prompt, n)
	if err != nil {
		t.Fatal(err)
	}

	for _, recycle := range []bool{false, true} {
		for _, mapped := range []bool{false, true} {
			name := fmt.Sprintf("recycle=%v mmap=%v", recycle, mapped)
			open := OpenFileStore
			if mapped {
				open = OpenFileStoreMmap
			}
			st, err := open(path)
			if err != nil {
				t.Fatal(err)
			}
			var backing WeightStore = st
			if !recycle {
				// Embedding the interface hides TensorInto, which is what
				// the prefetch store keys recycling on.
				backing = struct{ WeightStore }{st}
			}
			e := newPrefetchedSolo(t, cfg, backing, Retry{})
			if (e.se.prefetch.into != nil) != recycle {
				t.Fatalf("%s: recycling on = %v", name, e.se.prefetch.into != nil)
			}
			got, err := e.generate(context.Background(), prompt, n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: token %d = %d, want %d", name, i, got[i], want[i])
				}
			}
		}
	}
}

// Hot checkpoint reload over mmap-backed stores: generations pin the
// store generation they started on, so a concurrent Swap (whose closer
// unmaps the old generation's file) must never yank pages out from
// under an in-flight decode, and every retired generation's closer must
// still run exactly once. Run with -race this doubles as the
// unmap-after-release ordering check.
func TestSwappableMmapHotReloadRace(t *testing.T) {
	cfg := tinyOPT()
	path := writeTestCheckpoint(t, cfg, 47)
	prompt := []int{2, 9, 4}
	const n = 6

	ref, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := New(cfg, ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refEng.Generate(prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	first, err := OpenFileStoreMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwappable(first, first)
	if err != nil {
		t.Fatal(err)
	}

	const swaps = 5
	const readersN = 2
	const roundsPerReader = 4
	var wg sync.WaitGroup
	errs := make(chan error, readersN*roundsPerReader+swaps)

	for r := 0; r < readersN; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < roundsPerReader; round++ {
				w, _, release, err := sw.Acquire()
				if err != nil {
					errs <- err
					return
				}
				// The prefetched engine exercises the recycling decode
				// path (TensorInto straight out of the mapping); Close
				// joins background fetches before the pin drops, so no
				// read outlives the generation.
				be, err := NewBatchPrefetched(context.Background(), cfg, w, 1, Retry{})
				if err != nil {
					release()
					errs <- err
					return
				}
				got, genErr := prefetchedSolo{be}.generate(context.Background(), prompt, n)
				closeErr := be.Close()
				release()
				if genErr != nil {
					errs <- genErr
					return
				}
				if closeErr != nil {
					errs <- closeErr
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("reader token %d = %d, want %d", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			fs, err := OpenFileStoreMmap(path)
			if err != nil {
				errs <- err
				return
			}
			installed, err := sw.Swap(fs, fs)
			if err != nil {
				errs <- err
				return
			}
			if !installed {
				errs <- fmt.Errorf("swap %d not installed", i)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.DeferredCloseErr(); err != nil {
		t.Fatal(err)
	}
	// Every generation — the initial store, each swapped-in one — has
	// been retired and its mapping released exactly once.
	if got, wantGens := sw.RetiredGenerations(), int64(swaps+1); got != wantGens {
		t.Errorf("retired generations = %d, want %d", got, wantGens)
	}
}
