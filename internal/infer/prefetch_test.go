package infer

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"helmsim/internal/fault"
	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// prefetchedSolo is a prefetched step engine decoding one sequence: the
// engine that stands where a prefetched solo Engine would.
type prefetchedSolo struct{ *StepEngine }

func newPrefetchedSolo(t testing.TB, cfg model.Config, w WeightStore, r Retry) prefetchedSolo {
	t.Helper()
	se, err := NewStepEnginePrefetched(context.Background(), cfg, w, r)
	if err != nil {
		t.Fatal(err)
	}
	return prefetchedSolo{se}
}

func (p prefetchedSolo) generate(ctx context.Context, prompt []int, n int) ([]int, error) {
	out, err := lockstep(ctx, p.StepEngine, [][]int{prompt}, n)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Prefetched execution is a pure overlap optimization: greedy outputs
// must match the plain engine exactly, for both architectures and for
// raw, packed 4-bit and decoded 4-bit backings.
func TestPrefetchMatchesDirect(t *testing.T) {
	for _, tc := range []struct {
		name string
		mc   func() model.Config
	}{
		{"opt", tinyOPT},
		{"llama", tinyLlama},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := tc.mc()
			raw, err := RandomWeights(mc, 31, 0.08)
			if err != nil {
				t.Fatal(err)
			}
			q4 := memCheckpoint(t, mc, raw)
			for _, store := range []WeightStore{raw, q4, decodeOnly{q4}} {
				plain, err := New(mc, store)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.Generate([]int{1, 2, 3}, 8)
				if err != nil {
					t.Fatal(err)
				}
				pre := newPrefetchedSolo(t, mc, store, Retry{})
				got, err := pre.generate(context.Background(), []int{1, 2, 3}, 8)
				if err != nil {
					t.Fatal(err)
				}
				if err := pre.Close(); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%T: prefetched diverged at %d: %v vs %v", store, i, got, want)
					}
				}
			}
		})
	}
}

// The prefetcher must hit after the cold start: one foreground fetch for
// the very first layer, then every layer arrives via the background
// fetch — including across step boundaries (output-embed wraps to
// input-embed). And the weight traffic must be unchanged: one read
// per tensor per layer visit, same as the plain engine —
// plus the one look-ahead the pipeline has in flight when generation
// stops (the next step's input embedding), which is joined before
// counting so the comparison does not depend on how far a background
// goroutine got.
func TestPrefetchHitsAndWeightTraffic(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 5, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	countFor := func(prefetched bool) (reads, hits, misses int) {
		qs := memCheckpoint(t, mc, raw)
		var err error
		prompts := [][]int{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
		var se *StepEngine
		if prefetched {
			se, err = NewStepEnginePrefetched(context.Background(), mc, qs, Retry{})
		} else {
			se, err = NewStepEngine(mc, qs)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		if _, err := lockstep(context.Background(), se, prompts, 5); err != nil {
			t.Fatal(err)
		}
		se.Settle()
		h, m := se.PrefetchStats()
		return qs.Reads(), h, m
	}
	lookAhead := len(mc.Layers()[0].Weights)
	dPlain, _, _ := countFor(false)
	dPre, hits, misses := countFor(true)
	if dPre != dPlain+lookAhead {
		t.Errorf("prefetch changed read traffic: %d, want %d + %d trailing look-ahead", dPre, dPlain, lookAhead)
	}
	if misses != 1 {
		t.Errorf("prefetch misses = %d, want 1 (cold start only)", misses)
	}
	if hits == 0 {
		t.Error("prefetcher never hit")
	}
}

// Lockstep output must be byte-identical at parallelism 1, 2 and
// GOMAXPROCS, with and without prefetch, on a model large enough to
// engage the parallel kernel paths.
func TestLockstepParallelismInvariance(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	mc := model.Config{
		Name: "OPT-par", Hidden: 96, Heads: 4, Blocks: 2,
		Vocab: 640, MaxSeq: 64, DTypeBytes: 2,
	}
	raw, err := RandomWeights(mc, 13, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	qs := memCheckpoint(t, mc, raw)
	prompts := [][]int{{1, 2, 3}, {9, 4}, {7, 7, 7, 7}, {600, 2}}
	run := func(par int, prefetched bool) [][]int {
		prev := tensor.SetParallelism(par)
		defer tensor.SetParallelism(prev)
		var se *StepEngine
		var err error
		if prefetched {
			se, err = NewStepEnginePrefetched(context.Background(), mc, qs, Retry{})
		} else {
			se, err = NewStepEngine(mc, qs)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		out, err := lockstep(context.Background(), se, prompts, 6)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1, false)
	levels := []int{1, 2, runtime.GOMAXPROCS(0), 6}
	for _, par := range levels {
		for _, prefetched := range []bool{false, true} {
			got := run(par, prefetched)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("par=%d prefetch=%v: seq %d token %d = %d, want %d",
							par, prefetched, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// failStore fails every fetch of one layer — the backing-store error must
// surface from the engine even when the failing fetch ran in the
// background.
type failStore struct {
	backing WeightStore
	layer   int
}

var errSynthetic = errors.New("synthetic I/O failure")

func (f *failStore) Tensor(layer int, name string) ([]float32, error) {
	if layer == f.layer {
		return nil, fmt.Errorf("%w at L%d", errSynthetic, layer)
	}
	return f.backing.Tensor(layer, name)
}

func TestPrefetchErrorPropagation(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 2, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	eng := newPrefetchedSolo(t, mc, &failStore{backing: raw, layer: 3}, Retry{})
	defer eng.Close()
	_, err = eng.generate(context.Background(), []int{1, 2}, 2)
	if err == nil {
		t.Fatal("background fetch failure did not surface")
	}
	if !errors.Is(err, errSynthetic) {
		t.Errorf("error lost its cause: %v", err)
	}
}

// tripStore misbehaves exactly once, on its n-th Tensor access
// (1-based): it panics when boom is set and fails transiently otherwise.
// Locked, because the prefetcher reads it from a background goroutine.
type tripStore struct {
	backing WeightStore
	n       int
	boom    bool
	mu      sync.Mutex
	calls   int
}

func (s *tripStore) Tensor(layer int, name string) ([]float32, error) {
	if err := s.trip(layer, name); err != nil {
		return nil, err
	}
	return s.backing.Tensor(layer, name)
}

// trip counts one access and misbehaves if it is the n-th.
func (s *tripStore) trip(layer int, name string) error {
	s.mu.Lock()
	s.calls++
	trip := s.calls == s.n
	s.mu.Unlock()
	if trip && s.boom {
		panic("injected storage panic")
	}
	if trip {
		return fmt.Errorf("L%d/%s: %w", layer, name, fault.ErrTransient)
	}
	return nil
}

// armAt moves the misbehaving access.
func (s *tripStore) armAt(n int) {
	s.mu.Lock()
	s.n = n
	s.mu.Unlock()
}

func (s *tripStore) reads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// stepOnce feeds one prompt through a fresh set of KV blocks and returns
// the greedy token.
func stepOnce(se *StepEngine, prompt []int) (int, error) {
	seq := &StepSeq{Tokens: prompt, KV: NewBlockCaches(se.Config())}
	logits, err := se.Step([]*StepSeq{seq})
	if err != nil {
		return 0, err
	}
	return logits[0].ArgmaxRow(0), nil
}

// A failed foreground fetch belongs to the step that issued it: once the
// store recovers, the next step must read it again and succeed. Serving
// the errored bundle from the current-layer slot instead failed every
// later step with the stored error and zero store reads — one storage
// blip wedged the engine for good.
func TestPrefetchDoesNotReplayFetchError(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 2, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3}
	plain, err := NewStepEngine(mc, raw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stepOnce(plain, prompt)
	if err != nil {
		t.Fatal(err)
	}

	store := &tripStore{backing: raw, n: 1} // the first layer-0 read fails, nothing retries it
	se, err := NewStepEnginePrefetched(context.Background(), mc, store, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := stepOnce(se, prompt); !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("first step: got %v, want the injected transient", err)
	}
	before := store.reads()
	got, err := stepOnce(se, prompt)
	if err != nil {
		t.Fatalf("step after the store recovered (%d store reads since the failure): %v", store.reads()-before, err)
	}
	if store.reads() == before {
		t.Error("recovered step read nothing from the store")
	}
	if got != want {
		t.Errorf("recovered step sampled %d, want %d", got, want)
	}
}

// A backing store that panics on the prefetcher's goroutine must not
// take the process down: no caller can recover there. The panic becomes
// the bundle's error, and the consumer absorbs it like any other failed
// background fetch — a degraded foreground refetch.
func TestPrefetchBackgroundPanicBecomesFetchError(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 2, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3}
	plain, err := NewStepEngine(mc, raw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stepOnce(plain, prompt)
	if err != nil {
		t.Fatal(err)
	}

	// Layer 0 is fetched in the foreground (the cold miss), tensor by
	// tensor; the read after those is layer 1's background prefetch.
	firstBackground := len(mc.Layers()[0].Weights) + 1
	store := &tripStore{backing: raw, n: firstBackground, boom: true}
	se, err := NewStepEnginePrefetched(context.Background(), mc, store, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	got, err := stepOnce(se, prompt)
	if err != nil {
		t.Fatalf("step over a background panic: %v", err)
	}
	if got != want {
		t.Errorf("sampled %d, want %d", got, want)
	}
	if d := se.DegradedFetches(); d != 1 {
		t.Errorf("degraded fetches = %d, want 1 (the panicked prefetch)", d)
	}
}

func TestPrefetchContextCancellation(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 2, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	se, err := NewStepEnginePrefetched(ctx, mc, raw, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := stepOnce(se, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	cancel()
	// A step after cancellation must fail with the context error.
	if _, err := stepOnce(se, []int{3}); !errors.Is(err, context.Canceled) {
		t.Errorf("step after cancellation: %v, want context.Canceled", err)
	}
	// Close after cancel is clean and idempotent.
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}
}

// A posted fetch that failed because the engine's context was cancelled
// prefetched nothing: it is a miss, not a hit. helmd folds these counts
// into /statz prefetch_hits, so a force-cancelled drain must not read as
// prefetcher success. At one worker nothing runs the posted layer-0 fetch
// before the engine joins it, after the cancel.
func TestPrefetchCancelledFetchCountsAsMiss(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 2, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	se, err := NewStepEnginePrefetched(ctx, mc, raw, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := stepOnce(se, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	hits, misses := se.PrefetchStats()
	cancel()
	if _, err := stepOnce(se, []int{3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("step after cancellation: %v, want context.Canceled", err)
	}
	if h, m := se.PrefetchStats(); h != hits || m != misses+1 {
		t.Errorf("after a cancelled prefetch: hits, misses = %d, %d; want %d, %d", h, m, hits, misses+1)
	}
}

func TestPrefetchValidation(t *testing.T) {
	mc := tinyOPT()
	ctx := context.Background()
	if _, err := NewStepEnginePrefetched(ctx, mc, nil, Retry{}); err == nil {
		t.Error("nil backing accepted")
	}
	bad := mc
	bad.Hidden = 0
	raw, _ := RandomWeights(mc, 1, 0.08)
	if _, err := NewStepEnginePrefetched(ctx, bad, raw, Retry{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewStepEnginePrefetched(ctx, mc, raw, Retry{Max: -1}); err == nil {
		t.Error("invalid retry policy accepted")
	}
	// Unknown layers error instead of deadlocking.
	se, err := NewStepEnginePrefetched(ctx, mc, raw, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := se.ld.layer(999); err == nil {
		t.Error("unknown layer accepted")
	}
}

// Two prefetched step engines, each with its own loader, read one shared
// FileStore concurrently — the -race gate for the whole fetch
// path (file reads, dequantization into recycled buffers, bundle swaps).
// Outputs must match the serial reference exactly.
func TestPrefetchedEnginesShareFileStore(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 41, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.hlmc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	qc := quant.Default()
	if err := WriteCheckpoint(f, mc, raw, &qc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	prompts := [][]int{{1, 2, 3}, {9, 4}}
	// Serial reference over the same checkpoint.
	ref, err := NewStepEngine(mc, fs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lockstep(context.Background(), ref, prompts, 5)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			se, err := NewStepEnginePrefetched(context.Background(), mc, fs, Retry{})
			if err != nil {
				errs[e] = err
				return
			}
			defer se.Close()
			got, err := lockstep(context.Background(), se, prompts, 5)
			if err != nil {
				errs[e] = err
				return
			}
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						errs[e] = fmt.Errorf("engine %d seq %d token %d: %d != %d", e, i, j, got[i][j], want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// bench's exact rows, held in tier-1: over one FileStore a plain and a
// prefetched engine each read exactly weightCount(cfg) tensors per decode
// step — step.weight_fetches_per_step from WeightFetches, and
// store.fetch_calls_per_step from the store's own count once the
// prefetch in flight has landed — the plain engine reports no prefetch
// and no lane, and both sample the solo engine's tokens.
func TestPrefetchExactFetchRows(t *testing.T) {
	cfg := tinyOPT()
	fs, err := OpenFileStore(writeTestCheckpoint(t, cfg, 19))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	prompt := []int{1, 2, 3}
	const n = 6
	solo, err := New(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Generate(prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewStepEngine(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	prefetched, err := NewStepEnginePrefetched(context.Background(), cfg, fs, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer prefetched.Close()
	perStep := weightCount(cfg)
	for _, tc := range []struct {
		name string
		se   *StepEngine
	}{{"plain", plain}, {"prefetched", prefetched}} {
		seq := &StepSeq{Tokens: prompt, KV: NewBlockCaches(cfg)}
		var got []int
		for i := 0; i < n; i++ {
			fetches, reads := tc.se.WeightFetches(), fs.Reads()
			logits, err := tc.se.Step([]*StepSeq{seq})
			if err != nil {
				t.Fatal(err)
			}
			tc.se.Settle()
			seq.Pos += len(seq.Tokens)
			got = append(got, logits[0].ArgmaxRow(0))
			seq.Tokens = got[len(got)-1:]
			if d := tc.se.WeightFetches() - fetches; d != perStep {
				t.Errorf("%s step %d: WeightFetches grew by %d, want %d", tc.name, i, d, perStep)
			}
			// The prefetched prefill also reads layer 0 twice: its cold
			// miss, and the next step's look-ahead.
			if d := fs.Reads() - reads; d != perStep && i > 0 {
				t.Errorf("%s decode step %d: the store served %d reads, want %d", tc.name, i, d, perStep)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: tokens %v, solo engine says %v", tc.name, got, want)
		}
	}
	if h, m := plain.PrefetchStats(); h != 0 || m != 0 {
		t.Errorf("plain engine reports prefetch hits, misses = %d, %d", h, m)
	}
	if w, c := plain.LaneStats(); w != 0 || c != 0 {
		t.Errorf("plain engine reports lane counts %d, %d", w, c)
	}
}
