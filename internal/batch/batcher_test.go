package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"helmsim/internal/fault"
	"helmsim/internal/infer"
	"helmsim/internal/kvcache"
	"helmsim/internal/model"
)

func batchConfig() model.Config {
	return model.Config{
		Name: "batch-opt", Hidden: 32, Heads: 4, Blocks: 3,
		Vocab: 64, MaxSeq: 128, DTypeBytes: 2,
	}
}

// soloGenerate is the reference: a single-request engine decoding one
// prompt with no batching, no paging, no sharing.
func soloGenerate(t *testing.T, cfg model.Config, w infer.WeightStore, prompt []int, n int) []int {
	t.Helper()
	e, err := infer.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Generate(prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func newTestBatcher(t *testing.T, cfg model.Config, w infer.WeightStore, pages, pageTokens int, opts Options) *Batcher {
	t.Helper()
	se, err := infer.NewStepEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := kvcache.NewPool(cfg, pages, pageTokens, true)
	if err != nil {
		t.Fatal(err)
	}
	return New(se, pool, opts)
}

// TestContinuousByteIdentity is the tentpole invariant under -race:
// many concurrent submissions, a running set smaller than the request
// count, and wildly different generation lengths — so sequences join
// and leave the batch mid-decode constantly — and every request's
// token stream is byte-identical to a solo single-request engine.
func TestContinuousByteIdentity(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 11, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		prompt []int
		n      int
	}
	jobs := []job{
		{[]int{3, 1, 4, 1, 5}, 9},
		{[]int{9, 2, 6}, 2},
		{[]int{5, 3, 5, 8, 9, 7, 9}, 5},
		{[]int{2, 7}, 12},
		{[]int{3, 1, 4, 1, 5, 9, 2, 6}, 3},
		{[]int{1}, 7},
		{[]int{6, 6, 6, 6}, 1},
		{[]int{3, 1, 4}, 10},
	}
	want := make([][]int, len(jobs))
	for i, j := range jobs {
		want[i] = soloGenerate(t, cfg, w, j.prompt, j.n)
	}

	b := newTestBatcher(t, cfg, w, 64, 4, Options{MaxSeqs: 3})
	defer b.Stop()

	got := make([][]int, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i], errs[i] = b.Submit(context.Background(), j.prompt, j.n)
		}(i, j)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !equalInts(got[i], want[i]) {
			t.Fatalf("job %d diverged from solo engine: got %v, want %v", i, got[i], want[i])
		}
	}

	// A step commits its counters before it delivers its results, so
	// the ledger is settled the moment the last Submit returns.
	st := b.Stats()
	if st.Completed != len(jobs) {
		t.Fatalf("completed: got %d, want %d", st.Completed, len(jobs))
	}
	if st.Steps == 0 || st.OccupancySum < st.Steps {
		t.Fatalf("implausible occupancy: %d over %d steps", st.OccupancySum, st.Steps)
	}
	// With 8 jobs over 3 slots, some step must have run >1 sequence.
	if st.AvgOccupancy() <= 1.0 && st.Steps < st.OccupancySum {
		t.Fatalf("batching never overlapped: avg occupancy %.2f", st.AvgOccupancy())
	}
}

// gateStore blocks every weight fetch until released — it parks the
// batcher's first step so a test can line up concurrent submissions
// deterministically instead of racing the decode loop.
type gateStore struct {
	backing infer.WeightStore
	release chan struct{}
}

func (g *gateStore) Tensor(layer int, name string) ([]float32, error) {
	<-g.release
	return g.backing.Tensor(layer, name)
}

// TestPreemptionPreservesIdentity forces page pressure mid-decode: the
// pool cannot hold both growing sequences, so the youngest is evicted,
// requeued, and resumed from its token history — and both streams must
// still match the solo engine exactly.
func TestPreemptionPreservesIdentity(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 13, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	promptA := []int{3, 1, 4, 1}
	promptB := []int{9, 2, 6, 5}
	const n = 12 // grows each sequence to 16 tokens = 4 pages of 4
	wantA := soloGenerate(t, cfg, w, promptA, n)
	wantB := soloGenerate(t, cfg, w, promptB, n)

	// 6 pages total: both sequences need 8 — preemption is inevitable
	// once both run. The gate holds the first step until both requests
	// are enqueued, so the decode loop cannot finish one before the
	// other joins.
	gate := &gateStore{backing: w, release: make(chan struct{})}
	b := newTestBatcher(t, cfg, gate, 6, 4, Options{MaxSeqs: 2})
	defer b.Stop()

	var wg sync.WaitGroup
	var gotA, gotB []int
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); gotA, errA = b.Submit(context.Background(), promptA, n) }()
	go func() { defer wg.Done(); gotB, errB = b.Submit(context.Background(), promptB, n) }()
	for {
		st := b.Stats()
		if st.Admitted+st.Queued >= 2 {
			break
		}
		runtime.Gosched()
	}
	close(gate.release)
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("submit: %v / %v", errA, errB)
	}
	if !equalInts(gotA, wantA) {
		t.Fatalf("A diverged: got %v, want %v", gotA, wantA)
	}
	if !equalInts(gotB, wantB) {
		t.Fatalf("B diverged: got %v, want %v", gotB, wantB)
	}
	if st := b.Stats(); st.Preemptions == 0 {
		t.Fatalf("expected page-pressure preemption, stats: %+v", st)
	}
}

// TestPageGateKeepsQueueTail is the regression test for a dropped-queue
// bug: when the page-pressure gate held back the queue head while MORE
// requests waited behind it, admission's early break left the tail out
// of the kept slice and the compaction silently truncated it — those
// submitters never got an answer. Six requests deep behind a gated head
// must all still complete, byte-identically.
func TestPageGateKeepsQueueTail(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 23, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Every request wants 4 pages of 4 (12-token prompt + decode page);
	// 8 total pages run two at a time, so the gate trips on the queue
	// head with the rest of the queue lined up behind it.
	prompts := make([][]int, 7)
	for i := range prompts {
		prompts[i] = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 10 + i}
	}
	const n = 4
	want := make([][]int, len(prompts))
	for i, p := range prompts {
		want[i] = soloGenerate(t, cfg, w, p, n)
	}

	gate := &gateStore{backing: w, release: make(chan struct{})}
	b := newTestBatcher(t, cfg, gate, 8, 4, Options{MaxSeqs: 4})
	defer b.Stop()

	got := make([][]int, len(prompts))
	errs := make([]error, len(prompts))
	var wg sync.WaitGroup
	for i, p := range prompts {
		wg.Add(1)
		go func(i int, p []int) {
			defer wg.Done()
			got[i], errs[i] = b.Submit(context.Background(), p, n)
		}(i, p)
	}
	// Hold the first step open until the whole set is enqueued, so
	// admission sees a deep queue and the gate break has a tail to lose.
	for {
		st := b.Stats()
		if st.Admitted+st.Queued >= len(prompts) {
			break
		}
		runtime.Gosched()
	}
	close(gate.release)
	wg.Wait()
	for i := range prompts {
		if errs[i] != nil {
			t.Fatalf("request %d never completed: %v", i, errs[i])
		}
		if !equalInts(got[i], want[i]) {
			t.Fatalf("request %d diverged: got %v, want %v", i, got[i], want[i])
		}
	}
	if st := b.Stats(); st.Completed != len(prompts) {
		t.Fatalf("completed: got %d, want %d", st.Completed, len(prompts))
	}
}

// TestPrefixReuseAcrossRequests: a second request whose prompt extends
// the first one's skips the shared positions (prefix-cache hit) and
// still decodes byte-identically.
func TestPrefixReuseAcrossRequests(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 17, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	system := []int{7, 3, 7, 3, 7, 3, 7, 3, 2, 2, 2, 2} // 3 full pages of 4
	turn2 := append(append([]int(nil), system...), 11, 12, 13)

	b := newTestBatcher(t, cfg, w, 32, 4, Options{MaxSeqs: 2})
	defer b.Stop()

	got1, err := b.Submit(context.Background(), system, 4)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := b.Submit(context.Background(), turn2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := soloGenerate(t, cfg, w, system, 4); !equalInts(got1, want) {
		t.Fatalf("turn 1 diverged: got %v, want %v", got1, want)
	}
	if want := soloGenerate(t, cfg, w, turn2, 4); !equalInts(got2, want) {
		t.Fatalf("turn 2 diverged: got %v, want %v", got2, want)
	}
	st := b.Stats()
	if st.Pool.PrefixHits == 0 || st.Pool.SharedTokens < 12 {
		t.Fatalf("prefix cache never hit: %+v", st.Pool)
	}
}

// TestSubmitValidation covers the request-side guards.
func TestSubmitValidation(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 19, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b := newTestBatcher(t, cfg, w, 8, 4, Options{})
	if _, err := b.Submit(context.Background(), nil, 4); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if _, err := b.Submit(context.Background(), []int{1}, 0); err == nil {
		t.Fatal("zero generation accepted")
	}
	if _, err := b.Submit(context.Background(), []int{1}, cfg.MaxSeq); err == nil {
		t.Fatal("context overflow accepted")
	}
	b.Stop()
	if _, err := b.Submit(context.Background(), []int{1}, 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: got %v, want ErrStopped", err)
	}
	// Stop is idempotent.
	b.Stop()
}

// TestSubmitCancellation: a cancelled context fails the request whether
// it is still queued or already running.
func TestSubmitCancellation(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 23, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b := newTestBatcher(t, cfg, w, 32, 4, Options{MaxSeqs: 1})
	defer b.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Submit(ctx, []int{1, 2}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: got %v, want context.Canceled", err)
	}
}

// TestStopDrains: Stop completes queued work before returning.
func TestStopDrains(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 29, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b := newTestBatcher(t, cfg, w, 32, 4, Options{MaxSeqs: 2})

	const jobs = 4
	got := make([][]int, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = b.Submit(context.Background(), []int{i + 1, i + 2}, 3)
		}(i)
	}
	b.Stop() // may race with submissions; those either complete or see ErrStopped
	wg.Wait()
	var completed int
	for i := 0; i < jobs; i++ {
		if errs[i] == nil {
			completed++
			if want := soloGenerate(t, cfg, w, []int{i + 1, i + 2}, 3); !equalInts(got[i], want) {
				t.Fatalf("job %d diverged: got %v, want %v", i, got[i], want)
			}
		} else if !errors.Is(errs[i], ErrStopped) {
			t.Fatalf("job %d: %v", i, errs[i])
		}
	}
	// Requests rejected at Submit never enter the ledger; everything
	// the batcher accepted must be accounted completed.
	if st := b.Stats(); st.Completed != completed || st.Failed != 0 {
		t.Fatalf("accounting: stats %+v, %d submissions returned tokens", st, completed)
	}
}

// TestLoneOversizedRequestFails: a request that cannot fit in the whole
// pool fails with ErrOutOfPages instead of livelocking.
func TestLoneOversizedRequestFails(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 31, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b := newTestBatcher(t, cfg, w, 2, 4, Options{MaxSeqs: 2})
	defer b.Stop()
	// 2 pages of 4 hold 8 positions; 6 prompt + 8 generated needs 14.
	_, err = b.Submit(context.Background(), []int{1, 2, 3, 4, 5, 6}, 8)
	if !errors.Is(err, kvcache.ErrOutOfPages) {
		t.Fatalf("oversized request: got %v, want ErrOutOfPages", err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// panicStore panics on every read while armed.
type panicStore struct {
	backing infer.WeightStore
	armed   atomic.Bool
}

func (p *panicStore) Tensor(layer int, name string) ([]float32, error) {
	if p.armed.Load() {
		panic("injected storage panic")
	}
	return p.backing.Tensor(layer, name)
}

// TestStepPanicFailsItsRequestsOnly: a panic under the engine step fails
// the requests riding that step with ErrPanicked — not the process —
// returns their pages, and leaves the batcher serving.
func TestStepPanicFailsItsRequestsOnly(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 37, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ps := &panicStore{backing: w}
	se, err := infer.NewStepEngine(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := kvcache.NewPool(cfg, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	b := New(se, pool, Options{MaxSeqs: 2})
	defer b.Stop()

	ps.armed.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Submit(context.Background(), []int{1 + i, 2, 3}, 4)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrPanicked) {
			t.Fatalf("request %d under a panicking store: got %v, want ErrPanicked", i, err)
		}
	}

	ps.armed.Store(false)
	prompt := []int{5, 6, 7}
	got, err := b.Submit(context.Background(), prompt, 4)
	if err != nil {
		t.Fatalf("batcher did not survive the panic: %v", err)
	}
	if want := soloGenerate(t, cfg, w, prompt, 4); !equalInts(got, want) {
		t.Fatalf("post-panic request diverged: got %v, want %v", got, want)
	}
	if st := b.Stats(); st.Failed != 2 || st.Completed != 1 || st.Retries != 0 {
		t.Errorf("accounting (a panicked step is never retried): %+v", st)
	}
	b.Stop() // the loop owns the pool until it exits
	if err := pool.Conserved(); err != nil {
		t.Errorf("page ledger after a panicked step: %v", err)
	}
	if pool.Len() != 0 {
		t.Errorf("%d sequences still hold pages", pool.Len())
	}
}

// blackoutStore fails its first read transiently, then recovers.
type blackoutStore struct {
	backing infer.WeightStore
	failed  atomic.Bool
}

func (s *blackoutStore) Tensor(layer int, name string) ([]float32, error) {
	if s.failed.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("L%d/%s: %w", layer, name, fault.ErrTransient)
	}
	return s.backing.Tensor(layer, name)
}

// TestStorageBlackoutDoesNotPoisonBatcher: the step retry after a failed
// weight fetch must reach the store again. A prefetched engine that
// replayed its cached fetch error failed every retry, and every later
// request, without a single read.
func TestStorageBlackoutDoesNotPoisonBatcher(t *testing.T) {
	cfg := batchConfig()
	w, err := infer.RandomWeights(cfg, 41, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	se, err := infer.NewStepEnginePrefetched(context.Background(), cfg, &blackoutStore{backing: w}, infer.Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	pool, err := kvcache.NewPool(cfg, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	b := New(se, pool, Options{})
	defer b.Stop()

	prompt := []int{3, 1, 4}
	got, err := b.Submit(context.Background(), prompt, 4)
	if err != nil {
		t.Fatalf("request across a one-read blackout: %v", err)
	}
	if want := soloGenerate(t, cfg, w, prompt, 4); !equalInts(got, want) {
		t.Fatalf("diverged: got %v, want %v", got, want)
	}
	if st := b.Stats(); st.Retries != 1 {
		t.Errorf("step retries = %d, want 1", st.Retries)
	}
}
