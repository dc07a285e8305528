package infer

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helmsim/internal/checkpoint"
	"helmsim/internal/fault"
	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// noSleep is the injectable clock for retry backoff in tests.
func noSleep(time.Duration) {}

// flakyStore fails the first failures calls with a transient error, then
// serves from the backing store.
type flakyStore struct {
	backing  WeightStore
	failures int
	calls    int
}

func (f *flakyStore) Tensor(layer int, name string) ([]float32, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, fmt.Errorf("flaky: %w", fault.ErrTransient)
	}
	return f.backing.Tensor(layer, name)
}

// permStore always fails with a permanent (untyped) error.
type permStore struct{ calls int }

func (p *permStore) Tensor(layer int, name string) ([]float32, error) {
	p.calls++
	return nil, errors.New("disk on fire")
}

// pauseCounter is a Retry whose injectable clock counts the backoff
// pauses — one per re-attempt — instead of sleeping.
func pauseCounter(max int) (Retry, *int) {
	pauses := new(int)
	return Retry{Max: max, Sleep: func(time.Duration) { *pauses++ }}, pauses
}

// The engine's foreground retry absorbs transient store errors: the cold
// fetch of layer 0 fails twice, is re-attempted under the policy's
// backoff, recovers, and the step samples the plain engine's token.
func TestResilientStoreRetriesTransients(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1)) // flakyStore counts unlocked: keep every read on this goroutine
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 3, 0.08)
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
	r, pauses := pauseCounter(3)
	se, err := NewStepEnginePrefetched(context.Background(), mc, &flakyStore{backing: raw, failures: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	got, err := stepOnce(se, prompt)
	if err != nil {
		t.Fatalf("transient failures not absorbed: %v", err)
	}
	if got != want {
		t.Errorf("recovered step sampled %d, want %d", got, want)
	}
	if *pauses != 2 {
		t.Errorf("retries = %d; want 2", *pauses)
	}
}

func TestResilientStoreDoesNotRetryPermanentErrors(t *testing.T) {
	mc := tinyOPT()
	ps := &permStore{}
	r, pauses := pauseCounter(5)
	se, err := NewStepEnginePrefetched(context.Background(), mc, ps, r)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if _, err := stepOnce(se, []int{1}); err == nil {
		t.Fatal("permanent error swallowed")
	}
	if ps.calls != 1 {
		t.Errorf("permanent error was retried %d times", ps.calls-1)
	}
	if *pauses != 0 {
		t.Errorf("retries = %d, want 0", *pauses)
	}
}

// A store that never recovers exhausts the budget and the step fails
// with the transient error still typed — a caller above (the batcher, a
// client) can still tell a flaky tier from a broken one. The failing
// tensor is read 1 + Max times: the loader's per-tensor retry is the
// whole budget.
func TestResilientStoreExhaustionStaysTyped(t *testing.T) {
	mc := tinyOPT()
	fs := &flakyStore{backing: nil, failures: 1 << 30} // never recovers
	r, _ := pauseCounter(2)
	se, err := NewStepEnginePrefetched(context.Background(), mc, fs, r)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	_, err = stepOnce(se, []int{1})
	if err == nil {
		t.Fatal("exhausted retries returned success")
	}
	if !fault.IsTransient(err) {
		t.Errorf("exhaustion lost transient typing: %v", err)
	}
	if want := 1 + r.Max; fs.calls != want {
		t.Errorf("attempts = %d, want %d (1 + 2 retries)", fs.calls, want)
	}
	if _, err := NewStepEnginePrefetched(context.Background(), mc, nil, Retry{}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewStepEnginePrefetched(context.Background(), mc, fs, Retry{Max: -1}); err == nil {
		t.Error("negative retry accepted")
	}
}

// writeTestCheckpoint stores quantized weights for mc and returns the
// path.
func writeTestCheckpoint(tb testing.TB, mc model.Config, seed int64) string {
	tb.Helper()
	raw, err := RandomWeights(mc, seed, 0.08)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "chaos.hlmc")
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
	return path
}

// The acceptance chaos run: a seeded 5% transient-read fault plan over a
// FileStore must not change a prefetched engine's output — every failed
// background fetch degrades to a foreground retry (DegradedFetches > 0)
// and the generation completes with zero errors and byte-identical
// tokens.
func TestChaosTransientFaultsAreAbsorbed(t *testing.T) {
	mc := tinyOPT()
	path := writeTestCheckpoint(t, mc, 17)
	prompt := []int{1, 2, 3}
	const gen = 12

	// Fault-free reference.
	clean, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	ref := newPrefetchedSolo(t, mc, clean, Retry{})
	want, err := ref.generate(context.Background(), prompt, gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Same checkpoint behind a 5% transient fault plan.
	faulty, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	fs, err := fault.NewStore(faulty, fault.Plan{Seed: 99, TransientRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	eng := newPrefetchedSolo(t, mc, fs, Retry{Max: 12, Sleep: noSleep})
	defer eng.Close()
	got, err := eng.generate(context.Background(), prompt, gen)
	if err != nil {
		t.Fatalf("generation failed under 5%% transient faults: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d diverged under faults: %v vs %v", i, got, want)
		}
	}
	st := fs.Stats()
	if st.Transients == 0 {
		t.Fatal("plan injected no faults — chaos run proved nothing")
	}
	if eng.DegradedFetches() == 0 {
		t.Errorf("transients injected (%d) but DegradedFetches = 0", st.Transients)
	}
	t.Logf("chaos: %d accesses, %d transients, %d degraded fetches", st.Accesses, st.Transients, eng.DegradedFetches())
}

// countingFile counts the f32 fetches (Tensor, TensorInto) that reach
// the file store for records it holds packed.
type countingFile struct {
	*FileStore
	f32Packed atomic.Int64
}

func (c *countingFile) count(layer int, name string) {
	if _, ok, _ := c.FileStore.TensorPacked(layer, name); ok {
		c.f32Packed.Add(1)
	}
}

func (c *countingFile) Tensor(layer int, name string) ([]float32, error) {
	c.count(layer, name)
	return c.FileStore.Tensor(layer, name)
}

func (c *countingFile) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	c.count(layer, name)
	return c.FileStore.TensorInto(layer, name, dst)
}

// An engine behind the fault injector runs the product path: every 4-bit
// record crosses the injector as a packed view (no Tensor or TensorInto
// call for one reaches the file store), the transients the plan throws
// at packed fetches are absorbed, and the tokens are the fault-free
// engine's.
func TestChaosFaultStoreKeepsPackedPath(t *testing.T) {
	mc := tinyOPT()
	path := writeTestCheckpoint(t, mc, 19)
	prompt := []int{1, 2, 3}
	const gen = 12

	clean, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	ref := newPrefetchedSolo(t, mc, clean, Retry{})
	want, err := ref.generate(context.Background(), prompt, gen)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	file, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	counted := &countingFile{FileStore: file}
	fs, err := fault.NewStore(counted, fault.Plan{Seed: 31, TransientRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	eng := newPrefetchedSolo(t, mc, fs, Retry{Max: 12, Sleep: noSleep})
	defer eng.Close()
	got, err := eng.generate(context.Background(), prompt, gen)
	if err != nil {
		t.Fatalf("generation failed under 5%% transient faults: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("tokens under faults %v, fault-free %v", got, want)
	}
	if n := counted.f32Packed.Load(); n != 0 {
		t.Errorf("%d f32 fetches of 4-bit records reached the file store: the injector dropped the packed path", n)
	}
	if st := fs.Stats(); st.Transients == 0 {
		t.Error("plan injected no faults — chaos run proved nothing")
	}
}

// Silent storage-tier bit flips must surface as checkpoint.ErrCorrupt —
// the generation fails typed, it never emits wrong tokens.
func TestChaosCorruptionIsDetectedNeverWrongTokens(t *testing.T) {
	mc := tinyOPT()
	path := writeTestCheckpoint(t, mc, 23)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ra, err := fault.NewReaderAt(f, fault.Plan{Seed: 7, CorruptRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	ra.SetArmed(false) // index cleanly ...
	ix, err := checkpoint.NewIndexed(ra)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewFileStore(ix)
	if err != nil {
		t.Fatal(err)
	}
	ra.SetArmed(true) // ... then corrupt every payload read
	eng, err := New(mc, store)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Generate([]int{1, 2}, 4)
	if err == nil {
		t.Fatalf("corrupted reads produced tokens: %v", out)
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("corruption not typed ErrCorrupt: %v", err)
	}
	if fault.IsTransient(err) {
		t.Errorf("corruption classified transient (would be retried forever): %v", err)
	}
}

// A retrying engine must also refuse corrupt data rather than retry it
// into the output: ErrCorrupt is permanent, so the foreground retry gives
// up immediately.
func TestChaosCorruptionNotRetried(t *testing.T) {
	mc := tinyOPT()
	path := writeTestCheckpoint(t, mc, 29)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ra, err := fault.NewReaderAt(f, fault.Plan{Seed: 11, CorruptRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	ra.SetArmed(false)
	ix, err := checkpoint.NewIndexed(ra)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewFileStore(ix)
	if err != nil {
		t.Fatal(err)
	}
	ra.SetArmed(true)
	eng := newPrefetchedSolo(t, mc, store, Retry{Max: 4, Sleep: noSleep})
	defer eng.Close()
	_, err = eng.generate(context.Background(), []int{1, 2}, 4)
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt through the retrying engine, got %v", err)
	}
}

// packedFailures records the packed reads of the file store that fail.
type packedFailures struct {
	*FileStore
	mu    sync.Mutex
	errs  []error
	names []string // "L<layer>/<name>" of each failed read
}

func (p *packedFailures) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	q, ok, err := p.FileStore.TensorPacked(layer, name)
	if err != nil {
		p.mu.Lock()
		p.errs = append(p.errs, err)
		p.names = append(p.names, TensorKey(layer, name))
		p.mu.Unlock()
	}
	return q, ok, err
}

// A corrupt 4-bit record read by a posted fetch: the prefetched engine
// takes one clean step over a 4-bit checkpoint, then every payload read
// is flipped. The fetch posted at the end of that step — the next step's
// embedding layer, whose first tensor is stored packed — fails typed
// ErrCorrupt through TensorPacked, the consumer counts one degraded
// fetch, its foreground retry reads the same packed record and fails the
// same way, and the generation returns the error without tokens. At one
// worker the posted items run at the join, after the injector is armed.
func TestChaosCorruptPackedReadUnderPrefetch(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	mc := tinyOPT()
	path := writeTestCheckpoint(t, mc, 37)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ra, err := fault.NewReaderAt(f, fault.Plan{Seed: 13, CorruptRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	ra.SetArmed(false)
	ix, err := checkpoint.NewIndexed(ra)
	if err != nil {
		t.Fatal(err)
	}
	file, err := NewFileStore(ix)
	if err != nil {
		t.Fatal(err)
	}
	store := &packedFailures{FileStore: file}
	eng := newPrefetchedSolo(t, mc, store, Retry{Max: 4, Sleep: noSleep})
	defer eng.Close()
	prompt := []int{1, 2, 3}
	if _, err := stepOnce(eng.StepEngine, prompt); err != nil {
		t.Fatalf("clean step: %v", err)
	}

	ra.SetArmed(true)
	out, err := eng.generate(context.Background(), prompt, 4)
	if out != nil {
		t.Errorf("corrupt reads produced tokens: %v", out)
	}
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("generation error %v, want ErrCorrupt", err)
	}
	if fault.IsTransient(err) {
		t.Errorf("corruption classified transient: %v", err)
	}
	if d := eng.DegradedFetches(); d != 1 {
		t.Errorf("degraded fetches = %d, want 1 (the posted fetch)", d)
	}
	// The posted fetch's read, then its foreground retry's: both of the
	// packed embedding record, both typed.
	first := TensorKey(mc.Layers()[0].Index, mc.Layers()[0].Weights[0].Name)
	if len(store.names) != 2 || store.names[0] != first || store.names[1] != first {
		t.Fatalf("failed packed reads %q, want the posted fetch's and the retry's of %s", store.names, first)
	}
	for i, err := range store.errs {
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("failed packed read %d: %v, want ErrCorrupt", i, err)
		}
	}
}

// Two engines share one fault-wrapped FileStore concurrently — the -race
// gate for the injector, the degraded-fetch path, and the retry
// counters. Both outputs must match the fault-free serial reference.
func TestChaosSharedFaultStoreConcurrentEngines(t *testing.T) {
	mc := tinyOPT()
	path := writeTestCheckpoint(t, mc, 41)
	prompt := []int{1, 2, 3}
	const gen = 6

	clean, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	ref, err := New(mc, clean)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompt, gen)
	if err != nil {
		t.Fatal(err)
	}

	faulty, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()
	fs, err := fault.NewStore(faulty, fault.Plan{Seed: 5, TransientRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			se, err := NewStepEnginePrefetched(context.Background(), mc, fs, Retry{Max: 16, Sleep: noSleep})
			if err != nil {
				errs[e] = err
				return
			}
			defer se.Close()
			got, err := prefetchedSolo{se}.generate(context.Background(), prompt, gen)
			if err != nil {
				errs[e] = fmt.Errorf("engine %d: %w", e, err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					errs[e] = fmt.Errorf("engine %d token %d: %d != %d", e, i, got[i], want[i])
					return
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
	if st := fs.Stats(); st.Transients == 0 {
		t.Error("shared chaos run injected no faults")
	}
}

// Closing the FileStore underneath a live engine must surface the typed
// checkpoint.ErrClosed — not a raw *os.File error — and closing the
// engine afterwards stays clean (the Close-ordering regression).
func TestCloseOrderingSurfacesTypedClosedError(t *testing.T) {
	mc := tinyOPT()
	path := writeTestCheckpoint(t, mc, 59)
	store, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	eng := newPrefetchedSolo(t, mc, store, Retry{})
	if _, err := eng.generate(context.Background(), []int{1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = eng.generate(context.Background(), []int{3}, 2)
	if err == nil {
		t.Fatal("generation over a closed store succeeded")
	}
	if !errors.Is(err, checkpoint.ErrClosed) {
		t.Fatalf("want checkpoint.ErrClosed, got %v", err)
	}
	if errors.Is(err, os.ErrClosed) {
		t.Errorf("raw os error leaked through: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("engine Close after store Close: %v", err)
	}
	// Closing the store again stays a clean no-op.
	if err := store.Close(); err != nil {
		t.Errorf("second store Close: %v", err)
	}
}

// MemStore and FileStore hand out copies — the FileStore here over an
// image whose payloads it reads as views — so a caller scribbling on a
// returned tensor must not corrupt the store for later layer visits. The
// FileStore's norm gains and biases are the exception, by design: its
// Tensor serves them as read-only views of the resident arena
// (TestFileStoreResidentViews), and its TensorInto decodes a copy.
func TestStoreTensorsAreCopies(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 61, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	fs := memCheckpoint(t, mc, raw)
	for _, tc := range []struct {
		store WeightStore
		name  string
	}{
		{raw, "w_token"},       // MemStore raw weight
		{raw, "w_ln"},          // MemStore norm gain
		{fs, "w_q"},            // FileStore 4-bit matrix, decoded
		{intoOnly{fs}, "w_ln"}, // FileStore norm gain, decoded
		{intoOnly{fs}, "b_ln"}, // FileStore bias, decoded
	} {
		layer := 1
		if tc.name == "w_token" {
			layer = 0
		}
		before, err := tc.store.Tensor(layer, tc.name)
		if err != nil {
			t.Fatalf("%T/%s: %v", tc.store, tc.name, err)
		}
		orig := append([]float32(nil), before...)
		for i := range before {
			before[i] = 12345 // scribble
		}
		after, err := tc.store.Tensor(layer, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range after {
			if after[i] != orig[i] {
				t.Fatalf("%T/%s: caller mutation corrupted the store at elem %d", tc.store, tc.name, i)
			}
		}
	}
}

// intoOnly fetches every tensor through TensorInto, into a fresh buffer.
type intoOnly struct{ *FileStore }

func (s intoOnly) Tensor(layer int, name string) ([]float32, error) {
	return s.TensorInto(layer, name, nil)
}

// Per-generation contexts bound a generation: cancellation and deadlines
// abort between forward passes with the context's error.
func TestGenerateContextDeadline(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 67, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(mc, raw)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.GenerateContext(ctx, []int{1, 2}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled generation err = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := eng.GenerateContext(dctx, []int{1, 2}, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired generation err = %v, want context.DeadlineExceeded", err)
	}
	// An unexpired context changes nothing.
	ok, err := eng.GenerateContext(context.Background(), []int{1, 2}, 2)
	if err != nil || len(ok) != 2 {
		t.Errorf("clean context generation: %v, %v", ok, err)
	}
}
