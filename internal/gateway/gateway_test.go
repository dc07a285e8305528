package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"helmsim/internal/fault"
	"helmsim/internal/server"
)

// stubReplica is a scripted replica speaking the daemon's HTTP surface:
// unit tests steer its verdicts directly instead of booting a real
// server.Server (the chaos acceptance test does that).
type stubReplica struct {
	mu          sync.Mutex
	genStatus   int
	genBody     string
	readyStatus int
	retryAfter  string
	statz       server.Stats
}

func newStubReplica() *stubReplica {
	return &stubReplica{
		genStatus: http.StatusOK, genBody: `{"tokens":[7]}`, readyStatus: http.StatusOK,
		statz: server.Stats{SchemaVersion: server.StatzSchemaVersion},
	}
}

// setStatz scripts the /statz document the stub serves.
func (r *stubReplica) setStatz(st server.Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.statz = st
}

func (r *stubReplica) set(genStatus int, genBody string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.genStatus, r.genBody = genStatus, genBody
}

func (r *stubReplica) setReady(status int, retryAfter string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.readyStatus, r.retryAfter = status, retryAfter
}

func (r *stubReplica) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		status, body := r.genStatus, r.genBody
		r.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if status == http.StatusTooManyRequests || status >= 500 {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		status, ra := r.readyStatus, r.retryAfter
		r.mu.Unlock()
		if ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.WriteHeader(status)
	})
	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		st := r.statz
		r.mu.Unlock()
		_ = json.NewEncoder(w).Encode(st)
	})
	return mux
}

// stubBackend wires a stub replica into a BackendConfig over an
// in-process transport, with a fault RoundTripper for kill switches.
func stubBackend(t *testing.T, name string, r *stubReplica, weight int) (BackendConfig, *fault.RoundTripper) {
	t.Helper()
	rt, err := fault.NewRoundTripper(HandlerTransport{Handler: r.handler()}, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	return BackendConfig{
		Name:   name,
		URL:    "http://" + name,
		Client: &http.Client{Transport: rt},
		Weight: weight,
	}, rt
}

func noSleep(time.Duration) {}

// startGateway builds a gateway over the configs plus an httptest front
// end, with teardown registered.
func startGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg.Sleep = noSleep
	g, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g.Drain(ctx)
	})
	return g, ts
}

func postGenerate(t *testing.T, url string, prompt []int) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"prompt": prompt, "max_tokens": 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestConfigValidation(t *testing.T) {
	good, _ := stubBackend(t, "a", newStubReplica(), 1)
	bad := []Config{
		{},
		{Backends: []BackendConfig{{Name: "", URL: "http://x"}}},
		{Backends: []BackendConfig{{Name: "a", URL: ""}}},
		{Backends: []BackendConfig{good, good}},                         // duplicate name
		{Backends: []BackendConfig{good}, Route: "secret-sauce"},        // unknown router
		{Backends: []BackendConfig{good}, ForwardTimeout: -time.Second}, // negative timeout
		{Backends: []BackendConfig{good}, Probe: ProbeConfig{FailThreshold: -1}},
		{Backends: []BackendConfig{{Name: "w", URL: "http://w", Weight: -2}}}, // negative weight
	}
	for i, cfg := range bad {
		if _, err := New(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(context.Background(), Config{Backends: []BackendConfig{good}}); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestRoundRobinSpreadsTraffic(t *testing.T) {
	var cfgs []BackendConfig
	for i := 0; i < 3; i++ {
		bc, _ := stubBackend(t, fmt.Sprintf("r%d", i), newStubReplica(), 1)
		cfgs = append(cfgs, bc)
	}
	g, ts := startGateway(t, Config{Backends: cfgs})
	for i := 0; i < 6; i++ {
		resp, body := postGenerate(t, ts.URL, []int{1, 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	st := g.Stats()
	for _, b := range st.Backends {
		if b.Attempts != 2 || b.Finalized != 2 || b.Served != 2 {
			t.Errorf("replica %s: attempts=%d finalized=%d served=%d, want 2/2/2", b.Name, b.Attempts, b.Finalized, b.Served)
		}
	}
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
}

func TestWeightedRoutingFollowsTierWeights(t *testing.T) {
	a, _ := stubBackend(t, "dram", newStubReplica(), 3)
	b, _ := stubBackend(t, "ssd", newStubReplica(), 1)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a, b}, Route: RouteWeighted})
	for i := 0; i < 8; i++ {
		resp, body := postGenerate(t, ts.URL, []int{1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	st := g.Stats()
	got := map[string]int64{}
	for _, bs := range st.Backends {
		got[bs.Name] = bs.Attempts
	}
	if got["dram"] != 6 || got["ssd"] != 2 {
		t.Errorf("weighted 3:1 split over 8 requests = dram %d, ssd %d; want 6, 2", got["dram"], got["ssd"])
	}
}

func TestLeastLoadPrefersShortQueue(t *testing.T) {
	a, _ := stubBackend(t, "busy", newStubReplica(), 1)
	b, _ := stubBackend(t, "idle", newStubReplica(), 1)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a, b}, Route: RouteLeastLoad})
	// Inject a probed queue depth: the busy replica reports a backlog.
	bb := g.Backend("busy")
	bb.mu.Lock()
	bb.lastStats = server.Stats{SchemaVersion: server.StatzSchemaVersion, QueueDepth: 9}
	bb.haveStats = true
	bb.mu.Unlock()
	for i := 0; i < 4; i++ {
		resp, body := postGenerate(t, ts.URL, []int{1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	st := g.Stats()
	for _, bs := range st.Backends {
		switch bs.Name {
		case "busy":
			if bs.Attempts != 0 {
				t.Errorf("busy replica took %d requests despite queue depth 9", bs.Attempts)
			}
		case "idle":
			if bs.Attempts != 4 {
				t.Errorf("idle replica took %d of 4 requests", bs.Attempts)
			}
		}
	}
}

func TestFailoverSkipsFailedReplicaAndSucceeds(t *testing.T) {
	sick := newStubReplica()
	sick.set(http.StatusInternalServerError, `{"error":"panic"}`)
	a, _ := stubBackend(t, "sick", sick, 1)
	b, _ := stubBackend(t, "well", newStubReplica(), 1)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a, b}})
	// Round-robin starts on the sick replica; every request must still
	// succeed via failover to the well one.
	for i := 0; i < 4; i++ {
		resp, body := postGenerate(t, ts.URL, []int{1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d (%s)", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Helm-Replica"); got != "well" {
			t.Errorf("request %d finalized by %q, want well", i, got)
		}
	}
	st := g.Stats()
	if st.RetriedFailover == 0 {
		t.Error("no failover retries recorded")
	}
	for _, bs := range st.Backends {
		if bs.Name == "sick" && bs.Finalized != 0 {
			t.Errorf("sick replica finalized %d responses", bs.Finalized)
		}
		if bs.Name == "well" && bs.Finalized != 4 {
			t.Errorf("well replica finalized %d of 4", bs.Finalized)
		}
	}
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
}

func TestTransportDeathFailsOver(t *testing.T) {
	a, rtA := stubBackend(t, "dead", newStubReplica(), 1)
	b, _ := stubBackend(t, "alive", newStubReplica(), 1)
	rtA.SetDown(true)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a, b}})
	for i := 0; i < 3; i++ {
		resp, body := postGenerate(t, ts.URL, []int{1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d during replica blackout: %d (%s)", i, resp.StatusCode, body)
		}
	}
	st := g.Stats()
	if st.RetriedFailover == 0 {
		t.Error("no failover retries recorded for a dead replica")
	}
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
}

func TestNoHealthyBackendSheds(t *testing.T) {
	a, rtA := stubBackend(t, "a", newStubReplica(), 1)
	b, rtB := stubBackend(t, "b", newStubReplica(), 1)
	rtA.SetDown(true)
	rtB.SetDown(true)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a, b}})
	resp, body := postGenerate(t, ts.URL, []int{1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("total fleet blackout returned %d (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no-healthy-backend shed carries no Retry-After")
	}
	st := g.Stats()
	if st.ShedNoHealthyBackend != 1 {
		t.Errorf("shed_no_healthy_backend = %d, want 1", st.ShedNoHealthyBackend)
	}
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
}

// TestRecoveredReplicaProbeClosesBreaker drives the gateway's probe
// accounting: a replica whose transport died trips its breaker; after
// the cooldown the next attempt is the half-open probe, and its answer
// must settle the slot (ProbeDone) and close the breaker. A probe left
// unsettled would hold the only slot and keep the replica out for good.
func TestRecoveredReplicaProbeClosesBreaker(t *testing.T) {
	a, rt := stubBackend(t, "r", newStubReplica(), 1)
	// One transport failure in any window of four trips it.
	a.Breaker = server.BreakerConfig{Window: 4, MinSamples: 1, TripRate: 0.25, Cooldown: time.Millisecond, Probes: 1}
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a}})
	rt.SetDown(true)
	if resp, body := postGenerate(t, ts.URL, []int{1}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request to a dead replica: %d (%s), want 503", resp.StatusCode, body)
	}
	if br := g.Stats().Backends[0].Breaker; br.State != "open" {
		t.Fatalf("breaker after a transport failure: %+v, want open", br)
	}
	rt.SetDown(false)
	time.Sleep(10 * time.Millisecond) // past the cooldown: the next attempt probes
	for i := 0; i < 2; i++ {
		if resp, body := postGenerate(t, ts.URL, []int{1}); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d to the recovered replica: %d (%s)", i, resp.StatusCode, body)
		}
	}
	st := g.Stats()
	if br := st.Backends[0].Breaker; br.State != "closed" || br.Recoveries != 1 || br.Probing != 0 {
		t.Errorf("breaker after the probe answered: %+v, want closed, one recovery, no probe held", br)
	}
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
}

func TestSaturatedFleetRelaysReplicaShed(t *testing.T) {
	full1 := newStubReplica()
	full1.set(http.StatusTooManyRequests, `{"error":"queue full"}`)
	full2 := newStubReplica()
	full2.set(http.StatusTooManyRequests, `{"error":"queue full"}`)
	a, _ := stubBackend(t, "a", full1, 1)
	b, _ := stubBackend(t, "b", full2, 1)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a, b}})
	resp, body := postGenerate(t, ts.URL, []int{1})
	// The replica's own 429 is relayed — not converted into a gateway
	// shed — because it carries the authoritative Retry-After.
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated fleet returned %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("relayed shed lost its Retry-After")
	}
	st := g.Stats()
	if st.Routed != 1 || st.ShedNoHealthyBackend != 0 {
		t.Errorf("routed=%d shed=%d; the relayed shed must count as routed", st.Routed, st.ShedNoHealthyBackend)
	}
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
}

func TestAdminDrainOutAndIn(t *testing.T) {
	a, _ := stubBackend(t, "a", newStubReplica(), 1)
	b, _ := stubBackend(t, "b", newStubReplica(), 1)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a, b}})

	resp, err := http.Post(ts.URL+"/admin/drain?replica=ghost", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("draining unknown replica returned %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/admin/drain?replica=a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain-out returned %d", resp.StatusCode)
	}
	for i := 0; i < 4; i++ {
		r, body := postGenerate(t, ts.URL, []int{1})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("request %d with one replica drained: %d (%s)", i, r.StatusCode, body)
		}
		if got := r.Header.Get("X-Helm-Replica"); got != "b" {
			t.Errorf("request %d routed to drained replica %q", i, got)
		}
	}

	resp, err = http.Post(ts.URL+"/admin/undrain?replica=a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain-in returned %d", resp.StatusCode)
	}
	before := g.Stats()
	for i := 0; i < 4; i++ {
		r, body := postGenerate(t, ts.URL, []int{1})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("request %d after drain-in: %d (%s)", i, r.StatusCode, body)
		}
	}
	after := g.Stats()
	var beforeA, afterA int64
	for i, bs := range before.Backends {
		if bs.Name == "a" {
			beforeA, afterA = bs.Attempts, after.Backends[i].Attempts
		}
	}
	if afterA <= beforeA {
		t.Errorf("replica a took no traffic after drain-in: %d -> %d", beforeA, afterA)
	}
}

func TestProberThresholdsAndDrainDetection(t *testing.T) {
	r := newStubReplica()
	bc, rt := stubBackend(t, "a", r, 1)
	clock := time.Unix(1000, 0)
	g, err := New(context.Background(), Config{
		Backends: []BackendConfig{bc},
		Probe:    ProbeConfig{FailThreshold: 2, PassThreshold: 1},
		Now:      func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	probe := func() {
		clock = clock.Add(time.Second)
		g.ProbeOnce(ctx)
	}
	b := g.Backend("a")

	probe()
	if !b.eligible() {
		t.Fatal("healthy replica not eligible after a passing probe")
	}

	// One failed probe must not evict; the second (threshold) must.
	rt.SetDown(true)
	probe()
	if !b.eligible() {
		t.Error("single probe failure below threshold evicted the replica")
	}
	probe()
	if b.eligible() {
		t.Error("replica still eligible after FailThreshold consecutive failures")
	}

	// Recovery: one pass (PassThreshold 1) restores rotation.
	rt.SetDown(false)
	probe()
	if !b.eligible() {
		t.Error("replica not restored after a passing probe")
	}

	// A draining replica is out of rotation but not unhealthy, and its
	// Retry-After back-off defers the next probe.
	r.setReady(http.StatusServiceUnavailable, "30")
	probe()
	if b.eligible() {
		t.Error("draining replica still in rotation")
	}
	st := g.Stats()
	var probes int64
	for _, bs := range st.Backends {
		if bs.Name == "a" {
			probes = bs.Probes
			if !bs.Draining {
				t.Error("fleetz does not report the replica draining")
			}
			if !bs.Ready {
				t.Error("draining was miscounted as unhealthy")
			}
		}
	}
	// Within the 30s Retry-After window the prober must hold off.
	probe()
	if got := g.Stats().Backends[0].Probes; got != probes {
		t.Errorf("prober ignored Retry-After: %d probes, want %d", got, probes)
	}
	// Past the window (and with the replica ready again) it resumes.
	clock = clock.Add(31 * time.Second)
	r.setReady(http.StatusOK, "")
	probe()
	if !b.eligible() {
		t.Error("replica not back in rotation after its drain ended")
	}
}

func TestGatewayDrain(t *testing.T) {
	a, _ := stubBackend(t, "a", newStubReplica(), 1)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a}})
	if resp, body := postGenerate(t, ts.URL, []int{1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain request: %d (%s)", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Drain(ctx); err != nil {
		t.Fatalf("clean drain errored: %v", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("drained readyz: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	r2, body := postGenerate(t, ts.URL, []int{1})
	if r2.StatusCode != http.StatusServiceUnavailable || r2.Header.Get("Retry-After") == "" {
		t.Errorf("post-drain generate: status %d, Retry-After %q (%s)", r2.StatusCode, r2.Header.Get("Retry-After"), body)
	}
	st := g.Stats()
	if st.State != "stopped" || st.ShedDraining != 1 {
		t.Errorf("post-drain stats: %+v", st)
	}
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
}

func TestBadRequestsConserve(t *testing.T) {
	a, _ := stubBackend(t, "a", newStubReplica(), 1)
	g, ts := startGateway(t, Config{Backends: []BackendConfig{a}})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body returned %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(`{"prompt":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty prompt returned %d", resp.StatusCode)
	}
	st := g.Stats()
	if st.BadRequests != 2 || !st.Conserved() {
		t.Errorf("bad-request ledger: %+v", st)
	}
}

func TestHandlerTransportRoundTrip(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Probe", "yes")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "short and stout")
	})
	c := &http.Client{Transport: HandlerTransport{Handler: h}}
	resp, err := c.Get("http://anywhere/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTeapot || resp.Header.Get("X-Probe") != "yes" || buf.String() != "short and stout" {
		t.Errorf("round trip mangled: %d %q %q", resp.StatusCode, resp.Header.Get("X-Probe"), buf.String())
	}
}
