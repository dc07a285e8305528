package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"helmsim/internal/infer"
	"helmsim/internal/model"
	"helmsim/internal/serve"
)

// tinyModel is a laptop-scale OPT-shaped config the engine can serve in
// milliseconds.
func tinyModel() model.Config {
	return model.Config{
		Name: "tiny-opt", Hidden: 32, Heads: 4, Blocks: 2,
		Vocab: 64, MaxSeq: 128, DTypeBytes: 2,
	}
}

// writeCheckpoint synthesizes weights and writes them as a checkpoint
// file, returning the path and the in-memory weights for baselines.
func writeCheckpoint(t *testing.T, mc model.Config, seed int64) (string, *infer.MemStore) {
	t.Helper()
	w, err := infer.RandomWeights(mc, seed, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.hlmc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := infer.WriteCheckpoint(f, mc, w, nil); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, w
}

// noSleep keeps retry backoff off the test clock.
func noSleep(time.Duration) {}

// startServer builds a Server plus an httptest front end and registers
// teardown.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// postGenerate sends one generation request and decodes the response.
func postGenerate(t *testing.T, url string, req GenerateRequest) (int, GenerateResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var gr GenerateResponse
		if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, gr, ""
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, GenerateResponse{}, er.Error
}

func TestConfigValidation(t *testing.T) {
	mc := tinyModel()
	open := func() (infer.WeightStore, io.Closer, error) { return nil, nil, nil }
	bad := []Config{
		{Model: mc}, // nil OpenStore
		{Model: mc, OpenStore: open, Workers: -1},   //
		{Model: mc, OpenStore: open, MaxQueue: -1},  //
		{Model: mc, OpenStore: open, MaxWait: -1},   //
		{Model: mc, OpenStore: open, MaxTokens: -1}, //
		{Model: mc, OpenStore: open, RequestTimeout: -1},
		{Model: mc, OpenStore: open, Retry: infer.Retry{Max: -1}},
		{Model: mc, OpenStore: open, Breaker: BreakerConfig{TripRate: 2}},
		{Model: mc, OpenStore: open, Batch: BatchConfig{MaxSeqs: -1}},
		{Model: mc, OpenStore: open, Batch: BatchConfig{KVPages: -1}},
		{Model: mc, OpenStore: open, Batch: BatchConfig{PageTokens: -1}},
		{OpenStore: open}, // invalid model
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Unset, the worker count follows the batch width, so a zero-value
	// config can fill every decode step.
	if got := (Config{}).withDefaults().Workers; got != 8 {
		t.Errorf("default workers = %d, want the default batch width 8", got)
	}
	if got := (Config{Batch: BatchConfig{MaxSeqs: 3}}).withDefaults().Workers; got != 3 {
		t.Errorf("default workers = %d, want Batch.MaxSeqs 3", got)
	}
	if _, err := New(nil, Config{Model: mc, OpenStore: open}); err == nil {
		t.Error("nil context accepted")
	}
	if _, err := New(context.Background(), Config{
		Model:     mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) { return nil, nil, fmt.Errorf("no checkpoint") },
	}); err == nil {
		t.Error("failing initial OpenStore not surfaced")
	}
}

// TestServeMatchesDirectEngine: the daemon returns byte-identical tokens
// to a solo engine — for back-to-back requests and for concurrent ones
// of different lengths riding the same decode steps — and /statz carries
// the batch snapshot with a conserved ledger.
func TestServeMatchesDirectEngine(t *testing.T) {
	mc := tinyModel()
	path, w := writeCheckpoint(t, mc, 1)
	ref, err := infer.New(mc, w)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3}
	want, err := ref.Generate(prompt, 8)
	if err != nil {
		t.Fatal(err)
	}

	s, ts := startServer(t, Config{
		Model: mc, OpenStore: FileOpener(path, 0, 1), Workers: 3,
		Retry: infer.Retry{Max: 2, Sleep: noSleep},
		Batch: BatchConfig{MaxSeqs: 2, KVPages: 64, PageTokens: 4},
	})
	status, gr, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompt, MaxTokens: 8})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, msg)
	}
	if !equalTokenSlices(gr.Tokens, want) {
		t.Fatalf("served tokens %v diverge from direct engine %v", gr.Tokens, want)
	}
	if gr.Generation != 1 || gr.Model != mc.Name {
		t.Errorf("response metadata %+v", gr)
	}
	// A second request must not see the first one's KV state as anything
	// but a shared prefix.
	status, gr2, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompt, MaxTokens: 8})
	if status != http.StatusOK {
		t.Fatalf("second request status %d: %s", status, msg)
	}
	if !equalTokenSlices(gr2.Tokens, want) {
		t.Fatalf("second serve diverged (stale KV cache?): %v vs %v", gr2.Tokens, want)
	}

	type jobCase struct {
		prompt []int
		n      int
	}
	jobs := []jobCase{
		{[]int{1, 2, 3}, 8},
		{[]int{4, 5}, 3},
		{[]int{1, 2, 3, 4, 5, 6}, 5},
		{[]int{7}, 10},
		{[]int{1, 2, 3}, 2}, // same prefix as job 0: prefix-cache fodder
	}
	wants := make([][]int, len(jobs))
	for i, j := range jobs {
		ref.Reset()
		if wants[i], err = ref.Generate(j.prompt, j.n); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	codes := make([]int, len(jobs))
	got := make([]GenerateResponse, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j jobCase) {
			defer wg.Done()
			codes[i], got[i], _ = postGenerate(t, ts.URL, GenerateRequest{Prompt: j.prompt, MaxTokens: j.n})
		}(i, j)
	}
	wg.Wait()
	for i := range jobs {
		if codes[i] != http.StatusOK {
			t.Fatalf("job %d: status %d", i, codes[i])
		}
		if !equalTokenSlices(got[i].Tokens, wants[i]) {
			t.Fatalf("job %d diverged from solo engine: got %v, want %v", i, got[i].Tokens, wants[i])
		}
	}

	st := s.Stats()
	if !st.Conserved() {
		t.Errorf("ledger not conserved: %+v", st)
	}
	if n := int64(2 + len(jobs)); st.Served != n || st.Arrivals != n {
		t.Errorf("served %d / arrivals %d, want %d/%d", st.Served, st.Arrivals, n, n)
	}
	if st.PrefetchHits == 0 {
		t.Errorf("prefetch pipeline unused: %+v", st)
	}
	if st.Batch == nil {
		t.Fatal("/statz must publish the batch snapshot")
	}
	if st.Batch.Completed != int(st.Served) || st.Batch.Steps == 0 {
		t.Errorf("batch snapshot inconsistent with server counters: %+v vs served %d", st.Batch, st.Served)
	}
	if st.Batch.Pool.TotalPages != 64 || st.BatchGeneration != 1 {
		t.Errorf("pool snapshot missing: %+v (batch generation %d)", st.Batch.Pool, st.BatchGeneration)
	}
}

func TestBadRequests(t *testing.T) {
	mc := tinyModel()
	path, _ := writeCheckpoint(t, mc, 2)
	s, ts := startServer(t, Config{Model: mc, OpenStore: FileOpener(path, 0, 1), MaxTokens: 8})
	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"prompt": [1,`},
		{"unknown field", `{"prompt": [1], "teperature": 2}`},
		{"empty prompt", `{"prompt": []}`},
		{"token out of vocab", `{"prompt": [1, 9999]}`},
		{"negative token", `{"prompt": [-1]}`},
		{"max_tokens above cap", `{"prompt": [1], "max_tokens": 9}`},
		{"negative max_tokens", `{"prompt": [1], "max_tokens": -2}`},
		{"negative timeout", `{"prompt": [1], "timeout_ms": -5}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	// GET on the generate route is not part of the surface.
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/generate status %d, want 405", resp.StatusCode)
	}
	st := s.Stats()
	if st.BadRequests != int64(len(cases)) {
		t.Errorf("bad requests %d, want %d", st.BadRequests, len(cases))
	}
	// Rejected-before-admission requests are not arrivals: conservation
	// holds over the admission pipeline.
	if !st.Conserved() || st.Arrivals != 0 {
		t.Errorf("bad requests leaked into the admission ledger: %+v", st)
	}
}

// blockStore lets a test hold the engine mid-read to build up a queue
// deterministically.
type blockStore struct {
	backing infer.WeightStore
	mu      sync.Mutex
	hold    chan struct{} // non-nil: reads block until closed
}

func (b *blockStore) gate() chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hold
}

func (b *blockStore) setGate(ch chan struct{}) {
	b.mu.Lock()
	b.hold = ch
	b.mu.Unlock()
}

func (b *blockStore) Tensor(layer int, name string) ([]float32, error) {
	if ch := b.gate(); ch != nil {
		<-ch
	}
	return b.backing.Tensor(layer, name)
}

func TestQueueFullAndRenege(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 3)
	bs := &blockStore{backing: w}
	gate := make(chan struct{})
	bs.setGate(gate)

	s, ts := startServer(t, Config{
		Model:     mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) { return bs, nil, nil },
		Workers:   1,
		MaxQueue:  1,
		MaxWait:   time.Millisecond, // queued-behind-a-blocked-worker requests renege
	})

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	// First request occupies the lone worker (blocked in storage);
	// second fills the queue.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, _ = postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1}, MaxTokens: 2})
		}(i)
		// Wait until the request is either in service or queued before
		// sending the next.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := s.Stats()
			if st.Admitted+int64(st.QueueDepth) > int64(i) || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Third arrival sees a full waiting line: 429 immediately.
	status, _, _ := postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1}, MaxTokens: 2})
	if status != http.StatusTooManyRequests {
		t.Errorf("queue-full arrival got %d, want 429", status)
	}
	// Hold the worker until the queued request is well past MaxWait: the
	// two tokens left to serve take less than a millisecond.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	bs.setGate(nil)
	wg.Wait()
	if statuses[0] != http.StatusOK {
		t.Errorf("in-service request got %d, want 200", statuses[0])
	}
	// The queued request waited far past MaxWait while the worker was
	// blocked: it must have reneged with 503.
	if statuses[1] != http.StatusServiceUnavailable {
		t.Errorf("overdue queued request got %d, want 503 renege", statuses[1])
	}
	st := s.Stats()
	if st.ShedQueueFull != 1 || st.ShedMaxWait != 1 {
		t.Errorf("shed accounting: %+v", st)
	}
	if !st.Conserved() {
		t.Errorf("ledger not conserved: %+v", st)
	}
}

// panicStore panics on request — the batcher's per-step recovery boundary
// must turn that into a 500 and keep the daemon serving.
type panicStore struct {
	backing infer.WeightStore
	arm     sync.Mutex
	panics  bool
}

func (p *panicStore) setPanics(v bool) {
	p.arm.Lock()
	p.panics = v
	p.arm.Unlock()
}

func (p *panicStore) Tensor(layer int, name string) ([]float32, error) {
	p.arm.Lock()
	armed := p.panics
	p.arm.Unlock()
	if armed {
		panic("injected storage panic")
	}
	return p.backing.Tensor(layer, name)
}

func TestPanicRecovery(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 4)
	ps := &panicStore{backing: w}
	s, ts := startServer(t, Config{
		Model:     mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) { return ps, nil, nil },
	})
	ps.setPanics(true)
	status, _, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1}, MaxTokens: 2})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicked request got %d (%s), want 500", status, msg)
	}
	ps.setPanics(false)
	status, _, msg = postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1}, MaxTokens: 2})
	if status != http.StatusOK {
		t.Fatalf("daemon did not survive the panic: %d (%s)", status, msg)
	}
	st := s.Stats()
	if st.Panics != 1 || st.Served != 1 || st.Failed != 1 {
		t.Errorf("panic accounting: %+v", st)
	}
	if !st.Conserved() {
		t.Errorf("ledger not conserved: %+v", st)
	}
}

func TestHealthEndpointsAndDrain(t *testing.T) {
	mc := tinyModel()
	path, _ := writeCheckpoint(t, mc, 5)
	s, ts := startServer(t, Config{Model: mc, OpenStore: FileOpener(path, 0, 1)})

	get := func(p string) int {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz = %d", got)
	}
	if got := get("/statz"); got != http.StatusOK {
		t.Errorf("/statz = %d", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("clean drain errored: %v", err)
	}
	// Draining flips readiness but not liveness, and admission sheds.
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz after drain = %d, want 200 (liveness)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d, want 503", got)
	}
	status, _, _ := postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1}, MaxTokens: 2})
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-drain request got %d, want 503", status)
	}
	st := s.Stats()
	if st.State != "stopped" || st.ShedDraining != 1 {
		t.Errorf("post-drain stats: %+v", st)
	}
	if st.Batch != nil || st.BatchGeneration != 0 {
		t.Errorf("batcher survived the drain: %+v (generation %d)", st.Batch, st.BatchGeneration)
	}
	if !st.Conserved() {
		t.Errorf("ledger not conserved: %+v", st)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestForceCancelOnDrainDeadline(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 6)
	bs := &blockStore{backing: w}
	gate := make(chan struct{})
	bs.setGate(gate)
	s, ts := startServer(t, Config{
		Model:     mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) { return bs, nil, nil },
	})

	got := make(chan int, 1)
	go func() {
		status, _, _ := postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1}, MaxTokens: 2})
		got <- status
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Admitted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Drain blocks on the worker, which is wedged inside a storage read —
	// context cancellation is only observed between reads, so the gate
	// must open for the force-cancel to land. Release it after the drain
	// deadline has expired.
	timer := time.AfterFunc(300*time.Millisecond, func() {
		close(gate)
		bs.setGate(nil)
	})
	defer timer.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("drain with a wedged request reported clean")
	}
	select {
	case status := <-got:
		if status != http.StatusServiceUnavailable {
			t.Errorf("force-cancelled request got %d, want 503", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("force-cancelled request never completed")
	}
	st := s.Stats()
	if st.ForceCancelled != 1 {
		t.Errorf("force-cancel accounting: %+v", st)
	}
	if !st.Conserved() {
		t.Errorf("ledger not conserved: %+v", st)
	}
}

// onceGate blocks the first Tensor read until released, signalling
// entry — so a test can hold a request mid-generation, deterministically,
// while it reloads the checkpoint underneath it.
type onceGate struct {
	backing infer.WeightStore
	enter   chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *onceGate) Tensor(layer int, name string) ([]float32, error) {
	g.once.Do(func() {
		g.enter <- struct{}{}
		<-g.release
	})
	return g.backing.Tensor(layer, name)
}

// A reload concurrent with an in-flight request must not mix weight
// generations within that request: the request is pinned to the
// generation it started on and computes every layer from it, even
// though the swapped-in checkpoint holds different weights. (Reloading
// byte-identical checkpoints cannot catch this — the two stores here
// genuinely differ.)
func TestHotReloadDoesNotMixGenerationsMidRequest(t *testing.T) {
	mc := tinyModel()
	pathA, wA := writeCheckpoint(t, mc, 21)
	pathB, wB := writeCheckpoint(t, mc, 22)
	prompt := []int{1, 2, 3}
	const n = 8
	baseline := func(w *infer.MemStore) []int {
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
	wantA, wantB := baseline(wA), baseline(wB)
	diverge := false
	for i := range wantA {
		if wantA[i] != wantB[i] {
			diverge = true
		}
	}
	if !diverge {
		t.Fatal("checkpoints A and B generate identical tokens; the test cannot detect mixing")
	}

	// The first open serves checkpoint A behind the gate; every later
	// open (the reload) serves checkpoint B ungated.
	gate := &onceGate{enter: make(chan struct{}, 1), release: make(chan struct{})}
	var opens int32
	var mu sync.Mutex
	open := func() (infer.WeightStore, io.Closer, error) {
		mu.Lock()
		opens++
		first := opens == 1
		mu.Unlock()
		path := pathB
		if first {
			path = pathA
		}
		fs, err := infer.OpenFileStore(path)
		if err != nil {
			return nil, nil, err
		}
		if err := fs.Verify(); err != nil {
			fs.Close()
			return nil, nil, err
		}
		if first {
			gate.backing = fs
			return gate, fs, nil
		}
		return fs, fs, nil
	}

	s, ts := startServer(t, Config{Model: mc, OpenStore: open, Workers: 1})
	type result struct {
		status int
		gr     GenerateResponse
	}
	got := make(chan result, 1)
	go func() {
		status, gr, _ := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompt, MaxTokens: n})
		got <- result{status, gr}
	}()
	<-gate.enter // the request is inside generation, pinned to A
	if err := s.Reload(); err != nil {
		t.Fatalf("reload under an in-flight request: %v", err)
	}
	close(gate.release)
	r := <-got
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request failed across the reload: %d", r.status)
	}
	if r.gr.Generation != 1 {
		t.Errorf("in-flight request reported generation %d, want the pinned 1", r.gr.Generation)
	}
	for i := range wantA {
		if r.gr.Tokens[i] != wantA[i] {
			t.Fatalf("in-flight request mixed generations: got %v, want all-A %v (all-B would be %v)",
				r.gr.Tokens, wantA, wantB)
		}
	}
	// The next request computes entirely on the new checkpoint.
	status, gr, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompt, MaxTokens: n})
	if status != http.StatusOK {
		t.Fatalf("post-reload request: %d (%s)", status, msg)
	}
	if gr.Generation != 2 {
		t.Errorf("post-reload generation = %d, want 2", gr.Generation)
	}
	for i := range wantB {
		if gr.Tokens[i] != wantB[i] {
			t.Fatalf("post-reload request not on new weights: got %v, want all-B %v", gr.Tokens, wantB)
		}
	}
}

// stepGate holds the engine's stall-th read of the input embedding's
// first tensor — one per decode step — until released, signalling
// entry, so a test can hold a request mid-decode deterministically.
type stepGate struct {
	backing infer.WeightStore
	stall   int
	enter   chan struct{}
	release chan struct{}

	mu     sync.Mutex
	first  string
	visits int
}

func (g *stepGate) Tensor(layer int, name string) ([]float32, error) {
	if layer == 0 {
		g.mu.Lock()
		if g.first == "" {
			g.first = name
		}
		if name == g.first {
			g.visits++
		}
		hold := name == g.first && g.visits == g.stall
		g.mu.Unlock()
		if hold {
			g.enter <- struct{}{}
			<-g.release
		}
	}
	return g.backing.Tensor(layer, name)
}

// A client that hangs up mid-decode cancels its generation: the request
// context derives from the client's, so the batcher retires the
// sequence at its next step, frees the slot and its KV pages, and the
// request settles as failed — neither served nor force-cancelled. The
// freed slot then serves the next request, byte-identical to a solo
// engine.
func TestClientDisconnectCancelsGeneration(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 29)
	const maxTokens = 32
	gate := &stepGate{backing: w, stall: 4, enter: make(chan struct{}), release: make(chan struct{})}
	s, err := New(context.Background(), Config{
		Model:     mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) { return gate, nil, nil },
		Workers:   1,
		MaxTokens: maxTokens,
		Batch:     BatchConfig{MaxSeqs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(t, s) })

	// The handler's own view of the request: serverSawHangup closes when
	// the server notices the client is gone, handled when /v1/generate
	// has answered.
	serverSawHangup := make(chan struct{})
	handled := make(chan struct{})
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		context.AfterFunc(r.Context(), func() { close(serverSawHangup) })
		defer close(handled)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	body, err := json.Marshal(GenerateRequest{Prompt: []int{1, 2, 3}, MaxTokens: maxTokens})
	if err != nil {
		t.Fatal(err)
	}
	clientCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	req, err := http.NewRequestWithContext(clientCtx, http.MethodPost, ts.URL+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()

	<-gate.enter // mid-decode: three steps done, the fourth blocked in storage
	hangUp()
	<-serverSawHangup
	close(gate.release)
	<-handled
	if err := <-clientErr; err == nil {
		t.Error("client that hung up got a response")
	}

	st := s.Stats()
	if st.Admitted != 1 || st.Failed != 1 || st.Served != 0 || st.ForceCancelled != 0 {
		t.Fatalf("disconnected request: admitted %d, failed %d, served %d, force-cancelled %d; want 1, 1, 0, 0",
			st.Admitted, st.Failed, st.Served, st.ForceCancelled)
	}
	if !st.Conserved() {
		t.Errorf("ledger not conserved: %+v", st)
	}
	// The batcher commits its step counters before delivering, and
	// retires the cancelled sequence before it publishes the running set.
	waitUntil(t, "the cancelled sequence to leave the batcher", func() bool {
		bst := s.Stats().Batch
		return bst.Running == 0 && bst.Pool.Seqs == 0 && bst.Failed == 1
	})
	bst := s.Stats().Batch
	if bst.Steps >= maxTokens || bst.Completed != 0 {
		t.Errorf("generation ran on after the hang-up: %d steps, %d completed; want < %d, 0", bst.Steps, bst.Completed, maxTokens)
	}

	// The one slot is free: the next request is served in full.
	prompt := []int{4, 5}
	tokens, _, err := generate(s, prompt, 6)
	if err != nil {
		t.Fatalf("request after the hang-up: %v", err)
	}
	if want := soloTokens(t, mc, w, prompt, 6); !sameTokens(tokens, want) {
		t.Errorf("request after the hang-up = %v, want %v", tokens, want)
	}
}

// A client that disconnects while queued lands in its own shed bucket —
// not shed_max_wait, which must stay zero when MaxWait is 0 (reneging
// disabled) — and the ledger still conserves.
func TestClientGoneWhileQueuedShedsSeparately(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 23)
	bs := &blockStore{backing: w}
	gate := make(chan struct{})
	bs.setGate(gate)
	s, err := New(context.Background(), Config{
		Model:     mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) { return bs, nil, nil },
		Workers:   1,
		MaxQueue:  2,
		// MaxWait 0: unbounded patience — the renege counter must stay 0.
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	// First job occupies the lone worker, blocked in storage.
	j1, status, _, _ := s.admit(context.Background(), []int{1}, 2, 0, serve.ClassInteractive)
	if j1 == nil {
		t.Fatalf("first admit shed with %d", status)
	}
	// Second job queues behind it, then its client hangs up.
	ctx2, cancel2 := context.WithCancel(context.Background())
	j2, status, _, _ := s.admit(ctx2, []int{1}, 2, 0, serve.ClassInteractive)
	if j2 == nil {
		t.Fatalf("second admit shed with %d", status)
	}
	cancel2()
	close(gate)
	bs.setGate(nil)
	<-j1.done
	<-j2.done
	if j1.err != nil {
		t.Fatalf("first job failed: %v", j1.err)
	}
	if j2.err == nil {
		t.Fatal("job with a gone client was served")
	}
	st := s.Stats()
	if st.ShedClientGone != 1 {
		t.Errorf("shed_client_gone = %d, want 1", st.ShedClientGone)
	}
	if st.ShedMaxWait != 0 {
		t.Errorf("shed_max_wait = %d with MaxWait disabled, want 0", st.ShedMaxWait)
	}
	if st.Served != 1 {
		t.Errorf("served = %d, want 1", st.Served)
	}
	if !st.Conserved() {
		t.Errorf("ledger not conserved: %+v", st)
	}
}

func TestHotReloadSwapsGenerations(t *testing.T) {
	mc := tinyModel()
	path, w := writeCheckpoint(t, mc, 7)
	ref, err := infer.New(mc, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate([]int{1, 2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := startServer(t, Config{Model: mc, OpenStore: FileOpener(path, 0, 1)})
	status, gr, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1, 2}, MaxTokens: 6})
	if status != http.StatusOK {
		t.Fatalf("pre-reload request: %d (%s)", status, msg)
	}
	if gr.Generation != 1 {
		t.Fatalf("pre-reload generation = %d", gr.Generation)
	}
	if err := s.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	status, gr, msg = postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1, 2}, MaxTokens: 6})
	if status != http.StatusOK {
		t.Fatalf("post-reload request: %d (%s)", status, msg)
	}
	if gr.Generation != 2 {
		t.Errorf("post-reload generation = %d, want 2", gr.Generation)
	}
	// Same checkpoint → same tokens: the reload is invisible to outputs.
	for i := range want {
		if gr.Tokens[i] != want[i] {
			t.Fatalf("post-reload tokens diverged: %v vs %v", gr.Tokens, want)
		}
	}
	st := s.Stats()
	if st.Reloads != 1 || st.Generation != 2 {
		t.Errorf("reload stats: %+v", st)
	}
	if st.RetiredGenerations != 1 {
		t.Errorf("old generation not retired: %+v", st)
	}
	// Reloading a corrupted checkpoint must fail closed: flip a byte and
	// verify the swap is refused while serving continues on the old
	// generation.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("reload of a corrupted checkpoint succeeded")
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	status, gr, msg = postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1, 2}, MaxTokens: 6})
	if status != http.StatusOK || gr.Generation != 2 {
		t.Fatalf("serving broken after refused reload: %d (%s) gen %d", status, msg, gr.Generation)
	}
	if st := s.Stats(); st.ReloadFailures != 1 {
		t.Errorf("reload failure not counted: %+v", st)
	}
}
