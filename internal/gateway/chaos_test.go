package gateway

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
	"sync/atomic"
	"testing"
	"time"

	"helmsim/internal/fault"
	"helmsim/internal/infer"
	"helmsim/internal/model"
	"helmsim/internal/server"
)

// tinyModel matches the server package's laptop-scale config so fleet
// and solo runs compare the same engine.
func tinyModel() model.Config {
	return model.Config{
		Name: "tiny-opt", Hidden: 32, Heads: 4, Blocks: 2,
		Vocab: 64, MaxSeq: 128, DTypeBytes: 2,
	}
}

// writeCheckpoint synthesizes weights and writes a checkpoint file —
// the shared artifact every replica serves.
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

// replica is one fleet member under test: a real daemon over a faulty
// store, fronted in-process with a fault RoundTripper as its network.
type replica struct {
	name string
	srv  *server.Server
	rt   *fault.RoundTripper
}

// startReplica boots a server.Server whose store injects seeded 5%
// transient faults on every open (reloads included), wired for
// in-process fronting.
func startReplica(t *testing.T, name string, mc model.Config, path string, seed int64) *replica {
	t.Helper()
	s, err := server.New(context.Background(), server.Config{
		Model:     mc,
		OpenStore: server.FileOpener(path, 0.05, seed+1),
		Workers:   2,
		MaxQueue:  64,
		Retry:     infer.Retry{Max: 8, Sleep: noSleep},
		Breaker: server.BreakerConfig{
			Window: 16, MinSamples: 4, TripRate: 0.5,
			Cooldown: 20 * time.Millisecond, Probes: 1,
		},
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

// TestFleetChaosLifecycle is the PR's acceptance test: a three-replica
// fleet under 5% injected storage faults driven through a replica kill,
// a hot checkpoint reload, and an administrative drain-out/drain-in —
// all mid-traffic, under -race — with zero failed client requests,
// every token byte-identical to a fault-free solo engine, and the fleet
// ledger conserved on top of each surviving replica's own ledger.
func TestFleetChaosLifecycle(t *testing.T) {
	mc := tinyModel()
	path, w := writeCheckpoint(t, mc, 42)

	// Fault-free reference outputs from a solo engine.
	ref, err := infer.New(mc, w)
	if err != nil {
		t.Fatal(err)
	}
	const nPrompts = 4
	const genTokens = 6
	want := make([][]int, nPrompts)
	prompts := make([][]int, nPrompts)
	for i := range prompts {
		prompts[i] = []int{1 + i, 2, 3}
		ref.Reset()
		if want[i], err = ref.Generate(prompts[i], genTokens); err != nil {
			t.Fatal(err)
		}
	}

	replicas := make([]*replica, 3)
	var cfgs []BackendConfig
	for i := range replicas {
		name := fmt.Sprintf("r%d", i)
		replicas[i] = startReplica(t, name, mc, path, int64(100*i))
		cfgs = append(cfgs, BackendConfig{
			Name:   name,
			URL:    "http://" + name,
			Client: &http.Client{Transport: replicas[i].rt},
			Breaker: server.BreakerConfig{
				Window: 16, MinSamples: 4, TripRate: 0.5,
				Cooldown: 20 * time.Millisecond, Probes: 1,
			},
		})
	}

	g, err := New(context.Background(), Config{
		Backends:     cfgs,
		Route:        RouteRoundRobin,
		MaxFailovers: 2,
		Sleep:        noSleep,
		Probe: ProbeConfig{
			Timeout: time.Second, FailThreshold: 2, PassThreshold: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Probe rounds run manually so each phase transition is
	// deterministic: the kill is observed only when the test says so,
	// guaranteeing the burst in between exercises failover.
	probe := func(rounds int) {
		for i := 0; i < rounds; i++ {
			g.ProbeOnce(context.Background())
		}
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	var failures atomic.Int64
	fire := func(i int) {
		defer wg.Done()
		p := i % nPrompts
		body, err := json.Marshal(server.GenerateRequest{Prompt: prompts[p], MaxTokens: genTokens})
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			failures.Add(1)
			t.Errorf("request %d transport error: %v", i, err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			failures.Add(1)
			t.Errorf("request %d failed: %d (%s) via %q", i, resp.StatusCode, msg, resp.Header.Get("X-Helm-Replica"))
			return
		}
		var gr server.GenerateResponse
		if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
			failures.Add(1)
			t.Errorf("request %d undecodable: %v", i, err)
			return
		}
		for j := range want[p] {
			if gr.Tokens[j] != want[p][j] {
				failures.Add(1)
				t.Errorf("request %d tokens diverged: %v vs %v", i, gr.Tokens, want[p])
				return
			}
		}
	}
	burst := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go fire(i)
		}
		wg.Wait()
	}
	attemptsOf := func(name string) int64 {
		for _, bs := range g.Stats().Backends {
			if bs.Name == name {
				return bs.Attempts
			}
		}
		t.Fatalf("no stats for replica %q", name)
		return 0
	}

	// --- Phase 1: faults absorbed, traffic spread across the fleet ----
	probe(1)
	burst(16)
	for i := range replicas {
		if attemptsOf(replicas[i].name) == 0 {
			t.Errorf("replica %s took no traffic in the healthy phase", replicas[i].name)
		}
	}

	// --- Phase 2: kill r0 mid-traffic -------------------------------
	// The blackout hits while r0 is still in rotation — no probe round
	// runs until after the burst — so requests routed there must fail
	// over invisibly; the prober then evicts it.
	replicas[0].rt.SetDown(true)
	burst(16)
	probe(2) // FailThreshold consecutive failures
	if g.Backend("r0").eligible() {
		t.Fatal("prober did not evict the killed replica after FailThreshold rounds")
	}
	killedAt := attemptsOf("r0")
	burst(8)
	if got := attemptsOf("r0"); got != killedAt {
		t.Errorf("evicted replica r0 still took forwards: attempts %d -> %d", killedAt, got)
	}

	// --- Phase 3: hot reload r1 mid-traffic -------------------------
	reloadDone := make(chan error, 1)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go fire(i)
		if i == 4 {
			go func() { reloadDone <- replicas[1].srv.Reload() }()
		}
	}
	wg.Wait()
	if err := <-reloadDone; err != nil {
		t.Fatalf("hot reload under fleet traffic: %v", err)
	}

	// --- Phase 4: drain r2 out and back in --------------------------
	resp, err := http.Post(ts.URL+"/admin/drain?replica=r2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin drain-out returned %d", resp.StatusCode)
	}
	drainedAt := attemptsOf("r2")
	burst(12)
	if got := attemptsOf("r2"); got != drainedAt {
		t.Errorf("drained replica r2 took traffic: attempts %d -> %d", drainedAt, got)
	}
	resp, err = http.Post(ts.URL+"/admin/undrain?replica=r2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin drain-in returned %d", resp.StatusCode)
	}
	burst(12)
	if got := attemptsOf("r2"); got == drainedAt {
		t.Error("replica r2 took no traffic after drain-in")
	}

	// --- Quiescence: both ledger layers conserve --------------------
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client-visible failures across the chaos run", n)
	}
	st := g.Stats()
	if st.RetriedFailover == 0 {
		t.Error("the replica kill produced no failover retries")
	}
	if st.ShedNoHealthyBackend != 0 {
		t.Errorf("%d requests shed with replicas still healthy", st.ShedNoHealthyBackend)
	}
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
	for _, r := range replicas {
		rs := r.srv.Stats()
		if !rs.Conserved() {
			t.Errorf("replica %s ledger not conserved: %+v", r.name, rs)
		}
		t.Logf("replica %s: arrivals %d served %d transients absorbed %d reloads %d",
			r.name, rs.Arrivals, rs.Served, rs.StoreTransients, rs.Reloads)
	}
	t.Logf("fleet: arrivals %d routed %d failover retries %d shed(no-healthy %d draining %d bad %d)",
		st.Arrivals, st.Routed, st.RetriedFailover, st.ShedNoHealthyBackend, st.ShedDraining, st.BadRequests)
	for _, bs := range st.Backends {
		t.Logf("  %s: attempts %d finalized %d served %d failovers %d probes %d (failed %d)",
			bs.Name, bs.Attempts, bs.Finalized, bs.Served, bs.Failovers, bs.Probes, bs.ProbeFailures)
	}
}
