package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helmsim/internal/checkpoint"
	"helmsim/internal/infer"
	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/serve"
)

// closeRecorder counts Close calls on one generation's store and can
// fail them.
type closeRecorder struct {
	closer io.Closer // nil: nothing to release
	closes atomic.Int32
	err    error
}

func (c *closeRecorder) Close() error {
	c.closes.Add(1)
	if c.closer != nil {
		if err := c.closer.Close(); err != nil {
			return err
		}
	}
	return c.err
}

// openRecorder wraps an OpenStore so every store it opens gets its own
// closeRecorder, kept in open order.
type openRecorder struct {
	open func() (infer.WeightStore, io.Closer, error)
	mu   sync.Mutex
	recs []*closeRecorder
}

func (o *openRecorder) OpenStore() (infer.WeightStore, io.Closer, error) {
	w, c, err := o.open()
	if err != nil {
		return nil, nil, err
	}
	rec := &closeRecorder{closer: c}
	o.mu.Lock()
	o.recs = append(o.recs, rec)
	o.mu.Unlock()
	return w, rec, nil
}

func (o *openRecorder) closers() []*closeRecorder {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*closeRecorder(nil), o.recs...)
}

// packedCounter counts the packed views a store hands out.
type packedCounter struct {
	*infer.FileStore
	n *atomic.Int64
}

func (p packedCounter) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	q, ok, err := p.FileStore.TensorPacked(layer, name)
	if ok {
		p.n.Add(1)
	}
	return q, ok, err
}

// generate submits one request straight to the queue and waits for it.
func generate(s *Server, prompt []int, n int) ([]int, int64, error) {
	j, status, _, reason := s.admit(context.Background(), prompt, n, 0, serve.ClassInteractive)
	if j == nil {
		return nil, 0, fmt.Errorf("shed with %d: %s", status, reason)
	}
	<-j.done
	return j.tokens, j.generation, j.err
}

// drain drains s with a test deadline.
func drain(t *testing.T, s *Server) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// Hot reload over mmap'd 4-bit checkpoints at widths the fused kernels
// take, so every batcher's loader holds packed views of its mapping
// while requests decode and reloads retire generations underneath. A
// generation's mapping is released only after the last batcher on it
// stopped and joined its fetches: every token matches the solo engine,
// and every generation closes exactly once. Run with -race this is the
// unmap-after-last-reader ordering check of DESIGN §3h.
func TestMmapHotReloadRace(t *testing.T) {
	mc := model.Config{Name: "packed-opt", Hidden: 64, Heads: 4, Blocks: 2, Vocab: 96, MaxSeq: 64, DTypeBytes: 2}
	w, err := infer.RandomWeights(mc, 47, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "packed.hlmc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	qc := quant.Default()
	if err := infer.WriteCheckpoint(f, mc, w, &qc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	prompt := []int{2, 9, 4}
	const n = 6
	ref, err := infer.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := infer.New(mc, ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Generate(prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	var packed atomic.Int64
	opener := &openRecorder{open: func() (infer.WeightStore, io.Closer, error) {
		fs, err := infer.OpenFileStoreMmap(path)
		if err != nil {
			return nil, nil, err
		}
		if err := fs.Verify(); err != nil {
			fs.Close()
			return nil, nil, err
		}
		return packedCounter{fs, &packed}, fs, nil
	}}
	s, err := New(context.Background(), Config{
		Model: mc, OpenStore: opener.OpenStore, Workers: 3,
		Batch: BatchConfig{MaxSeqs: 3, KVPages: 64, PageTokens: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	const reloads = 5
	const clients = 3
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds+reloads)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, _, err := generate(s, prompt, n)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("token %d = %d, want the solo engine's %d", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			if err := s.Reload(); err != nil {
				errs <- fmt.Errorf("reload %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := drain(t, s); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reloads != reloads || st.Generation != reloads+1 {
		t.Errorf("reloads = %d, generation = %d; want %d, %d", st.Reloads, st.Generation, reloads, reloads+1)
	}
	if st.RetiredGenerations != reloads+1 {
		t.Errorf("retired generations = %d after drain, want %d", st.RetiredGenerations, reloads+1)
	}
	for i, c := range opener.closers() {
		if got := c.closes.Load(); got != 1 {
			t.Errorf("generation %d closed %d times, want 1", i+1, got)
		}
	}
	if checkpoint.MmapSupported() && packed.Load() == 0 {
		t.Error("no packed view was fetched from the mapped generations")
	}
}

// A request straddling a reload keeps its generation open: the old
// store's closer has not run while the request is in flight, and runs
// exactly once after it, when the retired batcher stops.
func TestReloadClosesOldGenerationAfterLastRequest(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 31)
	gate := &onceGate{backing: w, enter: make(chan struct{}, 1), release: make(chan struct{})}
	first := true
	opener := &openRecorder{open: func() (infer.WeightStore, io.Closer, error) {
		if first {
			first = false
			return gate, nil, nil
		}
		return w, nil, nil
	}}
	s, err := New(context.Background(), Config{Model: mc, OpenStore: opener.OpenStore, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		gen int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, gen, err := generate(s, []int{1, 2, 3}, 4)
		done <- result{gen, err}
	}()
	<-gate.enter // the request is decoding on generation 1
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	old := opener.closers()[0]
	if got := old.closes.Load(); got != 0 {
		t.Fatalf("old generation closed %d times under an in-flight request", got)
	}
	if st := s.Stats(); st.RetiredGenerations != 0 || st.Generation != 2 {
		t.Fatalf("retired = %d, generation = %d with a request on generation 1", st.RetiredGenerations, st.Generation)
	}
	close(gate.release)
	r := <-done
	if r.err != nil || r.gen != 1 {
		t.Fatalf("straddling request: generation %d, err %v; want 1, nil", r.gen, r.err)
	}
	s.retiring.Wait() // the retired batcher has stopped
	if got := old.closes.Load(); got != 1 {
		t.Fatalf("old generation closed %d times after its last request, want 1", got)
	}
	if err := drain(t, s); err != nil {
		t.Fatal(err)
	}
	for i, c := range opener.closers() {
		if got := c.closes.Load(); got != 1 {
			t.Errorf("generation %d closed %d times, want 1", i+1, got)
		}
	}
	if st := s.Stats(); st.RetiredGenerations != 2 {
		t.Errorf("retired generations = %d after drain, want 2", st.RetiredGenerations)
	}
}

// Reloads racing traffic and a Drain: each opened store is closed
// exactly once, whether its reload installed it, lost to the drain, or
// came after it; a reload after the drain fails and serves nothing.
// Run under -race.
func TestConcurrentReloadAndDrain(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 33)
	opener := &openRecorder{open: func() (infer.WeightStore, io.Closer, error) { return w, nil, nil }}
	s, err := New(context.Background(), Config{Model: mc, OpenStore: opener.OpenStore, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var once sync.Once
	installed := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if s.Reload() == nil {
					once.Do(func() { close(installed) })
				}
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				generate(s, []int{1, 2}, 3)
			}
		}()
	}
	<-installed // drain while the reloaders are still going
	if err := drain(t, s); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := s.Reload(); err == nil {
		t.Error("reload after drain succeeded")
	}
	recs := opener.closers()
	for i, c := range recs {
		if got := c.closes.Load(); got != 1 {
			t.Errorf("store %d of %d closed %d times, want 1", i+1, len(recs), got)
		}
	}
	st := s.Stats()
	if st.Generation != st.Reloads+1 || st.RetiredGenerations != st.Generation {
		t.Errorf("generation %d, reloads %d, retired %d after drain", st.Generation, st.Reloads, st.RetiredGenerations)
	}
	if int64(len(recs)) != st.Reloads+1+st.ReloadFailures {
		t.Errorf("%d stores opened for %d reloads and %d failures", len(recs), st.Reloads, st.ReloadFailures)
	}
	if st.Batch != nil || st.BatchGeneration != 0 {
		t.Errorf("a batcher survived the drain: generation %d", st.BatchGeneration)
	}
}

// A retired generation's close error has no caller to go to: the
// reload that retired it still succeeds. The final generation's close
// error is Drain's.
func TestDrainReturnsFinalCloseError(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 35)
	errOld, errFinal := errors.New("old generation close"), errors.New("final generation close")
	var opens int
	open := func() (infer.WeightStore, io.Closer, error) {
		opens++
		if opens == 1 {
			return w, &closeRecorder{err: errOld}, nil
		}
		return w, &closeRecorder{err: errFinal}, nil
	}
	s, err := New(context.Background(), Config{Model: mc, OpenStore: open})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err != nil {
		t.Fatalf("reload reported the old generation's close: %v", err)
	}
	if err := drain(t, s); !errors.Is(err, errFinal) {
		t.Errorf("drain = %v, want the final generation's %v", err, errFinal)
	}
}

// soloTokens is what a single engine over w generates for prompt.
func soloTokens(t *testing.T, mc model.Config, w infer.WeightStore, prompt []int, n int) []int {
	t.Helper()
	eng, err := infer.New(mc, w)
	if err != nil {
		t.Fatal(err)
	}
	tokens, err := eng.Generate(prompt, n)
	if err != nil {
		t.Fatal(err)
	}
	return tokens
}

func sameTokens(a, b []int) bool {
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

// waitUntil polls cond until it holds or a test deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A reload serves the store it opened: requests before it compute on
// the first checkpoint, requests after it on the second, and the idle
// old generation closes exactly once when its batcher stops. A reload
// whose open fails is refused and the current generation keeps serving.
func TestReloadSwitchesWeights(t *testing.T) {
	mc := tinyModel()
	_, wA := writeCheckpoint(t, mc, 37)
	_, wB := writeCheckpoint(t, mc, 38)
	prompt := []int{1, 2, 3}
	const n = 6
	wantA, wantB := soloTokens(t, mc, wA, prompt, n), soloTokens(t, mc, wB, prompt, n)
	if sameTokens(wantA, wantB) {
		t.Fatal("checkpoints A and B generate identical tokens; the test cannot see the switch")
	}
	errOpen := errors.New("checkpoint missing")
	stores := []infer.WeightStore{wA, wB}
	opener := &openRecorder{open: func() (infer.WeightStore, io.Closer, error) {
		if len(stores) == 0 {
			return nil, nil, errOpen
		}
		w := stores[0]
		stores = stores[1:]
		return w, nil, nil
	}}
	s, err := New(context.Background(), Config{Model: mc, OpenStore: opener.OpenStore, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, want []int, wantGen int64) {
		t.Helper()
		got, gen, err := generate(s, prompt, n)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if gen != wantGen || !sameTokens(got, want) {
			t.Fatalf("%s: generation %d tokens %v, want generation %d tokens %v", when, gen, got, wantGen, want)
		}
	}
	check("before the reload", wantA, 1)
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	s.retiring.Wait() // the idle generation-1 batcher has stopped
	if got := opener.closers()[0].closes.Load(); got != 1 {
		t.Fatalf("idle old generation closed %d times after the reload, want 1", got)
	}
	if st := s.Stats(); st.Generation != 2 || st.RetiredGenerations != 1 {
		t.Fatalf("generation = %d, retired = %d after one reload; want 2, 1", st.Generation, st.RetiredGenerations)
	}
	check("after the reload", wantB, 2)
	if err := s.Reload(); !errors.Is(err, errOpen) {
		t.Fatalf("reload with a failing open = %v, want %v", err, errOpen)
	}
	if st := s.Stats(); st.Generation != 2 || st.Reloads != 1 || st.ReloadFailures != 1 {
		t.Fatalf("generation = %d, reloads = %d, failures = %d after a refused reload; want 2, 1, 1",
			st.Generation, st.Reloads, st.ReloadFailures)
	}
	check("after the refused reload", wantB, 2)
	if err := drain(t, s); err != nil {
		t.Fatal(err)
	}
	for i, c := range opener.closers() {
		if got := c.closes.Load(); got != 1 {
			t.Errorf("generation %d closed %d times, want 1", i+1, got)
		}
	}
}

// A request in flight keeps reading, and keeps open, the generation it
// started on while later reloads install and retire generations around
// it: a newer idle generation closes first, the straddled one only after
// its request finishes, and each exactly once. After a drain nothing is
// served.
func TestInFlightRequestOutlivesLaterGenerations(t *testing.T) {
	mc := tinyModel()
	_, wA := writeCheckpoint(t, mc, 39)
	_, wB := writeCheckpoint(t, mc, 40)
	_, wC := writeCheckpoint(t, mc, 41)
	prompt := []int{1, 2, 3}
	const n = 6
	wantA, wantC := soloTokens(t, mc, wA, prompt, n), soloTokens(t, mc, wC, prompt, n)
	if sameTokens(wantA, wantC) {
		t.Fatal("checkpoints A and C generate identical tokens; the test cannot see which one served")
	}
	gate := &onceGate{backing: wA, enter: make(chan struct{}, 1), release: make(chan struct{})}
	stores := []infer.WeightStore{gate, wB, wC}
	opener := &openRecorder{open: func() (infer.WeightStore, io.Closer, error) {
		w := stores[0]
		stores = stores[1:]
		return w, nil, nil
	}}
	s, err := New(context.Background(), Config{Model: mc, OpenStore: opener.OpenStore, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		tokens []int
		gen    int64
		err    error
	}
	done := make(chan result, 1)
	go func() {
		tokens, gen, err := generate(s, prompt, n)
		done <- result{tokens, gen, err}
	}()
	<-gate.enter // the request is decoding on generation 1
	for i := 0; i < 2; i++ {
		if err := s.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	recs := opener.closers()
	waitUntil(t, "generation 2 to close", func() bool { return recs[1].closes.Load() == 1 })
	if got := recs[0].closes.Load(); got != 0 {
		t.Fatalf("straddled generation closed %d times under its in-flight request", got)
	}
	if st := s.Stats(); st.Generation != 3 || st.RetiredGenerations != 1 {
		t.Fatalf("generation = %d, retired = %d with generation 1 still in flight; want 3, 1", st.Generation, st.RetiredGenerations)
	}
	close(gate.release)
	r := <-done
	if r.err != nil || r.gen != 1 || !sameTokens(r.tokens, wantA) {
		t.Fatalf("straddling request: generation %d tokens %v err %v; want generation 1 tokens %v", r.gen, r.tokens, r.err, wantA)
	}
	s.retiring.Wait() // the generation-1 batcher has stopped
	for i, want := range []int32{1, 1, 0} {
		if got := recs[i].closes.Load(); got != want {
			t.Fatalf("generation %d closed %d times after the straddling request, want %d", i+1, got, want)
		}
	}
	tokens, gen, err := generate(s, prompt, n)
	if err != nil || gen != 3 || !sameTokens(tokens, wantC) {
		t.Fatalf("fresh request: generation %d tokens %v err %v; want generation 3 tokens %v", gen, tokens, err, wantC)
	}
	if err := drain(t, s); err != nil {
		t.Fatal(err)
	}
	for i, c := range recs {
		if got := c.closes.Load(); got != 1 {
			t.Errorf("generation %d closed %d times after drain, want 1", i+1, got)
		}
	}
	if st := s.Stats(); st.RetiredGenerations != 3 {
		t.Errorf("retired generations = %d after drain, want 3", st.RetiredGenerations)
	}
	if _, _, err := generate(s, prompt, n); err == nil {
		t.Error("a request was served after the drain")
	}
}

// Reloads alternating two different checkpoints while requests run:
// every request's tokens are the solo engine's over the checkpoint its
// reported generation opened, so no request mixes generations or
// reports the wrong one. Run under -race.
func TestReloadStormTokensMatchTheirGeneration(t *testing.T) {
	mc := tinyModel()
	_, wA := writeCheckpoint(t, mc, 42)
	_, wB := writeCheckpoint(t, mc, 43)
	prompt := []int{1, 2, 3}
	const n = 6
	wantA, wantB := soloTokens(t, mc, wA, prompt, n), soloTokens(t, mc, wB, prompt, n)
	if sameTokens(wantA, wantB) {
		t.Fatal("checkpoints A and B generate identical tokens; the test cannot detect mixing")
	}
	// Opens run under the reload lock, so open k is generation k: odd
	// generations serve A, even ones B.
	var opens int
	opener := &openRecorder{open: func() (infer.WeightStore, io.Closer, error) {
		opens++
		if opens%2 == 1 {
			return wA, nil, nil
		}
		return wB, nil, nil
	}}
	s, err := New(context.Background(), Config{Model: mc, OpenStore: opener.OpenStore, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const reloads = 12
	const clients = 2
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds+reloads)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, gen, err := generate(s, prompt, n)
				if err != nil {
					errs <- err
					return
				}
				want := wantA
				if gen%2 == 0 {
					want = wantB
				}
				if !sameTokens(got, want) {
					errs <- fmt.Errorf("generation %d: tokens %v, want %v", gen, got, want)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			if err := s.Reload(); err != nil {
				errs <- fmt.Errorf("reload %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := drain(t, s); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Generation != reloads+1 || st.RetiredGenerations != reloads+1 {
		t.Errorf("generation = %d, retired = %d after drain; want %d, %d", st.Generation, st.RetiredGenerations, reloads+1, reloads+1)
	}
	for i, c := range opener.closers() {
		if got := c.closes.Load(); got != 1 {
			t.Errorf("generation %d closed %d times, want 1", i+1, got)
		}
	}
}

// Panicked steps rebuild their batcher on the same generation, so two
// batchers share it until the panicked one stops; reloads racing those
// rebuilds retire generations underneath. However the references
// interleave, each opened store closes exactly once, after its last
// batcher, and rebuilds number no generation. Run under -race.
func TestPanicRebuildsRacingReloadsCloseEachStoreOnce(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 44)
	prompt := []int{1, 2}
	const n = 3
	want := soloTokens(t, mc, w, prompt, n)
	ps := &panicStore{backing: w}
	opener := &openRecorder{open: func() (infer.WeightStore, io.Closer, error) { return ps, nil, nil }}
	s, err := New(context.Background(), Config{Model: mc, OpenStore: opener.OpenStore, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps.setPanics(true)
	const reloads = 6
	const clients = 3
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, reloads)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				generate(s, prompt, n) // fails: every step panics
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			if err := s.Reload(); err != nil {
				errs <- fmt.Errorf("reload %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ps.setPanics(false)
	got, _, err := generate(s, prompt, n)
	if err != nil || !sameTokens(got, want) {
		t.Fatalf("after the panics: tokens %v err %v, want %v", got, err, want)
	}
	if err := drain(t, s); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Panics == 0 {
		t.Fatal("no step panicked; the test exercised no rebuild")
	}
	if st.Reloads != reloads || st.Generation != reloads+1 || st.RetiredGenerations != reloads+1 {
		t.Errorf("reloads = %d, generation = %d, retired = %d after %d panics; want %d, %d, %d",
			st.Reloads, st.Generation, st.RetiredGenerations, st.Panics, reloads, reloads+1, reloads+1)
	}
	recs := opener.closers()
	if len(recs) != reloads+1 {
		t.Errorf("%d stores opened for %d reloads", len(recs), reloads)
	}
	for i, c := range recs {
		if got := c.closes.Load(); got != 1 {
			t.Errorf("store %d closed %d times, want 1", i+1, got)
		}
	}
	if !st.Conserved() {
		t.Errorf("ledger not conserved: %+v", st)
	}
}
