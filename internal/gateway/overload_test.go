package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helmsim/internal/fault"
	"helmsim/internal/infer"
	"helmsim/internal/serve"
	"helmsim/internal/server"
)

// waveGate holds every replica's worker mid-read while one wave's
// admission decisions land, so backlog — and therefore shedding — is
// deterministic no matter how fast the host decodes.
type waveGate struct {
	mu   sync.Mutex
	hold chan struct{} // non-nil: reads block until closed
}

func (g *waveGate) close() {
	g.mu.Lock()
	if g.hold == nil {
		g.hold = make(chan struct{})
	}
	g.mu.Unlock()
}

func (g *waveGate) open() {
	g.mu.Lock()
	if g.hold != nil {
		close(g.hold)
		g.hold = nil
	}
	g.mu.Unlock()
}

func (g *waveGate) wait() {
	g.mu.Lock()
	ch := g.hold
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// gateStore is a WeightStore whose reads park on the shared gate.
type gateStore struct {
	backing infer.WeightStore
	gate    *waveGate
}

func (s gateStore) Tensor(layer int, name string) ([]float32, error) {
	s.gate.wait()
	return s.backing.Tensor(layer, name)
}

// startCostReplica boots a fault-free daemon with token-budget admission
// configured, wired for in-process fronting. Every replica shares the
// same predictor seed, so cost estimates are comparable fleet-wide.
func startCostReplica(t *testing.T, name string, path string, cost server.CostConfig, gate *waveGate) *replica {
	t.Helper()
	mc := tinyModel()
	openStore := func() (infer.WeightStore, io.Closer, error) {
		fs, err := infer.OpenFileStore(path)
		if err != nil {
			return nil, nil, err
		}
		if err := fs.Verify(); err != nil {
			fs.Close()
			return nil, nil, err
		}
		return gateStore{backing: fs, gate: gate}, fs, nil
	}
	s, err := server.New(context.Background(), server.Config{
		Model:     mc,
		OpenStore: openStore,
		Workers:   1, // a single slow lane per replica, so backlog is real
		MaxQueue:  64,
		Cost:      cost,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := fault.NewRoundTripper(HandlerTransport{Handler: s.Handler()}, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return &replica{name: name, srv: s, rt: rt}
}

// TestOverloadGracefulDegradation is the PR's acceptance test: a
// three-replica fleet offered a sustained mixed-class load whose batch
// and rag components each exceed roughly twice their fleet-wide cost
// budget. Under that overload, every interactive request succeeds with
// tokens byte-identical to a solo engine, shedding lands exclusively on
// the lower classes in the documented order, no admitted request fails,
// and the fleet ledger plus every replica ledger conserve per class —
// all under -race via the overload-smoke CI job.
func TestOverloadGracefulDegradation(t *testing.T) {
	mc := tinyModel()
	path, w := writeCheckpoint(t, mc, 77)

	// Fault-free reference outputs from a solo engine.
	ref, err := infer.New(mc, w)
	if err != nil {
		t.Fatal(err)
	}
	const nPrompts = 4
	const genTokens = 6
	prompts := make([][]int, nPrompts)
	want := make([][]int, nPrompts)
	for i := range prompts {
		prompts[i] = []int{1 + i, 2, 3}
		ref.Reset()
		if want[i], err = ref.Generate(prompts[i], genTokens); err != nil {
			t.Fatal(err)
		}
	}

	// Every request estimates at 3 prompt + 6 decode = 9 tokens (the
	// class buckets all clamp to max_tokens). Per replica: batch may hold
	// 2 concurrent requests (20/9), rag 2 (25/9), while the total budget
	// leaves interactive 155 tokens of guaranteed headroom — more than
	// every interactive request in a wave landing on one replica (12x9),
	// so by construction interactive is never shed.
	cost := server.CostConfig{
		TokenBudget:     200,
		ClassBudgets:    map[string]int{"batch": 20, "rag": 25},
		BrownoutHigh:    0.8,
		BrownoutLow:     0.4,
		BrownoutSustain: 4,
		PredictorSeed:   1,
	}
	gate := &waveGate{}
	replicas := make([]*replica, 3)
	var cfgs []BackendConfig
	for i := range replicas {
		name := fmt.Sprintf("r%d", i)
		replicas[i] = startCostReplica(t, name, path, cost, gate)
		cfgs = append(cfgs, BackendConfig{
			Name:   name,
			URL:    "http://" + name,
			Client: &http.Client{Transport: replicas[i].rt},
		})
	}
	g, err := New(context.Background(), Config{
		Backends:     cfgs,
		Route:        RouteLeastLoad, // cost-aware: routes on advertised backlog
		MaxFailovers: 2,
		Sleep:        noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	g.ProbeOnce(context.Background())

	// The offered mix, per wave: 12 interactive, 16 rag, 16 batch fired
	// concurrently. rag and batch each offer 144 estimated tokens against
	// fleet-wide class budgets of 75 and 60 — roughly 2x and 2.4x
	// capacity — sustained over three waves.
	const (
		nInteractive = 12
		nRag         = 16
		nBatch       = 16
		waves        = 3
	)
	var interactiveFail, admittedFail atomic.Int64
	var shedByClass [serve.NumClasses]atomic.Int64
	fire := func(wg *sync.WaitGroup, class serve.Class, i int, waveShed *atomic.Int64) {
		defer wg.Done()
		p := i % nPrompts
		body, err := json.Marshal(server.GenerateRequest{
			Prompt: prompts[p], MaxTokens: genTokens, Class: class.String(),
		})
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("%s request %d transport error: %v", class, i, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			shedByClass[class].Add(1)
			waveShed.Add(1)
			if class == serve.ClassInteractive {
				interactiveFail.Add(1)
				t.Errorf("interactive request %d shed with %d", i, resp.StatusCode)
			}
			// A shed must be honest: 429 or 503 with Retry-After, never a
			// silent failure of admitted work.
			if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
				admittedFail.Add(1)
				t.Errorf("%s request %d failed with %d (not a shed)", class, i, resp.StatusCode)
			} else if resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s request %d shed %d without Retry-After", class, i, resp.StatusCode)
			}
			return
		}
		var gr server.GenerateResponse
		if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
			admittedFail.Add(1)
			t.Errorf("%s request %d undecodable: %v", class, i, err)
			return
		}
		if len(gr.Tokens) != len(want[p]) {
			admittedFail.Add(1)
			t.Errorf("%s request %d token count %d, want %d", class, i, len(gr.Tokens), len(want[p]))
			return
		}
		for j := range want[p] {
			if gr.Tokens[j] != want[p][j] {
				admittedFail.Add(1)
				t.Errorf("%s request %d tokens diverged: %v vs %v", class, i, gr.Tokens, want[p])
				return
			}
		}
	}
	// fleetBacklog observes the replicas directly; the wave loop uses it
	// to sequence the gate, never to assert. Admitted cost is booked at
	// enqueue and released only at settlement, so with the gate closed
	// backlog/estCost counts exactly the requests admitted this wave.
	const estCost = 9 // every request: 3 prompt + 6 estimated decode
	fleetBacklog := func() int64 {
		var n int64
		for _, r := range replicas {
			n += r.srv.Stats().CostBacklog
		}
		return n
	}
	await := func(what string, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	const perWave = nInteractive + nRag + nBatch
	for wave := 0; wave < waves; wave++ {
		// Workers park on the gate, so every admission decision in this
		// wave is made against the full concurrent backlog — the overload
		// is real even on a host that decodes the tiny model in
		// microseconds.
		gate.close()
		var waveShed atomic.Int64
		var wg sync.WaitGroup
		wg.Add(perWave)
		for i := 0; i < nInteractive; i++ {
			go fire(&wg, serve.ClassInteractive, i, &waveShed)
		}
		for i := 0; i < nRag; i++ {
			go fire(&wg, serve.ClassRAG, i, &waveShed)
		}
		for i := 0; i < nBatch; i++ {
			go fire(&wg, serve.ClassBatch, i, &waveShed)
		}
		// Every request is decided — shed with a response, or admitted and
		// booked on exactly one replica — before any work drains.
		await("wave admission decisions", func() bool {
			return fleetBacklog()/estCost+waveShed.Load() >= perWave
		})
		gate.open()
		wg.Wait()
		// Quiesce the fleet so each wave faces the same starting state.
		await("cost backlog drain", func() bool { return fleetBacklog() == 0 })
	}

	// --- Quiescence: the acceptance properties ------------------------
	if n := interactiveFail.Load(); n != 0 {
		t.Fatalf("%d interactive requests shed under overload", n)
	}
	if n := admittedFail.Load(); n != 0 {
		t.Fatalf("%d admitted requests failed", n)
	}
	if shedByClass[serve.ClassBatch].Load()+shedByClass[serve.ClassRAG].Load() == 0 {
		t.Fatal("no lower-class sheds: the offered load did not exceed capacity")
	}

	st := g.Stats()
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
	if row := st.Classes[serve.ClassInteractive].Ledger; row.Arrivals != row.Buckets[serve.Admitted] {
		t.Errorf("fleet interactive row shed: %+v", row)
	}
	for _, r := range replicas {
		rs := r.srv.Stats()
		if !rs.Conserved() {
			t.Errorf("replica %s ledger not conserved: %+v", r.name, rs)
		}
		ir := rs.Classes[serve.ClassInteractive].Ledger
		if ir.Arrivals != ir.Buckets[serve.Admitted] {
			t.Errorf("replica %s shed interactive traffic: %+v", r.name, ir)
		}
		// Documented brownout order: rag browns out only after batch
		// (level 2 is reachable only through level 1).
		if rs.Classes[serve.ClassRAG].Ledger.Buckets[serve.ShedBrownout] > 0 && rs.Classes[serve.ClassBatch].Ledger.Buckets[serve.ShedBrownout] == 0 {
			t.Errorf("replica %s browned out rag before batch: %+v", r.name, rs.Classes)
		}
	}

	// The per-class ledger artifact the overload-smoke CI job archives.
	artifact := map[string]any{"fleet": st.Classes}
	for _, r := range replicas {
		artifact[r.name] = r.srv.Stats().Classes
	}
	js, _ := json.MarshalIndent(artifact, "", "  ")
	t.Logf("per-class ledger:\n%s", js)
}
