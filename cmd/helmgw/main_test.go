package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"helmsim/internal/gateway"
	"helmsim/internal/infer"
	"helmsim/internal/model"
	"helmsim/internal/server"
)

// syncBuffer is a goroutine-safe capture of the gateway's output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// fleetArgs describe the smoke-test fleet: three in-process replicas
// over a tiny model, 5% transient storage faults with a deep retry
// budget, fast probing.
var fleetArgs = []string{
	"-addr", "127.0.0.1:0",
	"-replicas", "3",
	"-hidden", "32", "-heads", "4", "-blocks", "2", "-vocab", "64",
	"-seed", "7", "-workers", "2",
	"-fault-rate", "0.05", "-fault-seed", "11", "-retries", "8",
	"-probe-interval", "25ms", "-fail-threshold", "2",
	"-drain-timeout", "15s",
}

// baselineTokens recomputes, fault-free and in-process, exactly what
// the fleet must serve: same flag-built config, same weight seed.
func baselineTokens(t *testing.T, prompts [][]int, genTokens int) [][]int {
	t.Helper()
	cfg, err := model.Mini("opt", 32, 4, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	w, err := infer.RandomWeights(cfg, 7, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, len(prompts))
	for i, p := range prompts {
		eng.Reset()
		if want[i], err = eng.Generate(p, genTokens); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func getFleetz(t *testing.T, base string) (gateway.FleetStats, bool) {
	t.Helper()
	resp, err := http.Get(base + "/fleetz")
	if err != nil {
		return gateway.FleetStats{}, false
	}
	defer resp.Body.Close()
	var st gateway.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("fleetz decode: %v", err)
	}
	return st, true
}

// TestGatewayLifecycle is the command-level smoke: realMain runs a
// three-replica in-process fleet under the race detector, takes real
// SIGHUP (fleet-wide hot reload) and an admin drain cycle mid-traffic,
// serves every request byte-identical to the fault-free baseline, and
// exits 0 from a SIGTERM drain with the fleet ledger conserved.
func TestGatewayLifecycle(t *testing.T) {
	const genTokens = 6
	prompts := [][]int{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}, {10, 11}}
	want := baselineTokens(t, prompts, genTokens)

	var stdout, stderrBuf syncBuffer
	exit := make(chan int, 1)
	go func() { exit <- realMain(fleetArgs, &stdout, &stderrBuf) }()

	var base string
	waitFor(t, "listen address", 10*time.Second, func() bool {
		out := stdout.String()
		_, rest, ok := strings.Cut(out, "helmgw: listening on ")
		if !ok {
			return false
		}
		addr, _, ok := strings.Cut(rest, ",")
		if !ok {
			return false
		}
		base = "http://" + addr
		return true
	})

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before traffic: %v, %+v", err, resp)
	} else {
		resp.Body.Close()
	}

	post := func(i int) (int, server.GenerateResponse, string) {
		p := i % len(prompts)
		body, _ := json.Marshal(server.GenerateRequest{Prompt: prompts[p], MaxTokens: genTokens})
		resp, err := http.Post(base+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, server.GenerateResponse{}, err.Error()
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return resp.StatusCode, server.GenerateResponse{}, e.Error
		}
		var gr server.GenerateResponse
		if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
			return 0, server.GenerateResponse{}, err.Error()
		}
		return http.StatusOK, gr, ""
	}
	checkTokens := func(i int, gr server.GenerateResponse) {
		p := i % len(prompts)
		for j := range want[p] {
			if j >= len(gr.Tokens) || gr.Tokens[j] != want[p][j] {
				t.Errorf("request %d tokens diverged from fault-free baseline: %v vs %v", i, gr.Tokens, want[p])
				return
			}
		}
	}
	burst := func(round, n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status, gr, msg := post(i)
				if status != http.StatusOK {
					t.Errorf("round %d request %d: status %d (%s)", round, i, status, msg)
					return
				}
				checkTokens(i, gr)
			}(i)
		}
		wg.Wait()
	}

	// --- Traffic with a fleet-wide SIGHUP reload mid-flight -----------
	burst(1, 8)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	burst(2, 8)
	waitFor(t, "fleet-wide reload", 10*time.Second, func() bool {
		return strings.Count(stderrBuf.String(), "reloaded, now serving generation 2") == 3
	})
	burst(3, 8)

	// --- Admin drain cycle under traffic ------------------------------
	resp, err := http.Post(base+"/admin/drain?replica=r1", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("admin drain: %v, %+v", err, resp)
	}
	resp.Body.Close()
	burst(4, 8)
	st, ok := getFleetz(t, base)
	if !ok {
		t.Fatal("fleetz unreachable")
	}
	for _, bs := range st.Backends {
		if bs.Name == "r1" && !bs.AdminDrained {
			t.Error("fleetz does not show r1 admin-drained")
		}
	}
	resp, err = http.Post(base+"/admin/undrain?replica=r1", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("admin undrain: %v, %+v", err, resp)
	}
	resp.Body.Close()
	burst(5, 8)

	st, ok = getFleetz(t, base)
	if !ok {
		t.Fatal("fleetz unreachable")
	}
	if st.SchemaVersion != gateway.FleetSchemaVersion {
		t.Errorf("fleetz schema version %d, want %d", st.SchemaVersion, gateway.FleetSchemaVersion)
	}
	if !st.Conserved() {
		t.Errorf("fleet ledger not conserved: %+v", st)
	}
	for _, bs := range st.Backends {
		if bs.Replica == nil {
			t.Errorf("replica %s has no probed statz snapshot", bs.Name)
		} else if bs.Replica.SchemaVersion != server.StatzSchemaVersion {
			t.Errorf("replica %s statz schema %d, want %d", bs.Name, bs.Replica.SchemaVersion, server.StatzSchemaVersion)
		}
	}

	// --- SIGTERM: gateway drains, then the fleet, exit 0 --------------
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderrBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("gateway did not exit after SIGTERM\nstderr:\n%s", stderrBuf.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "helmgw: drained: ") || !strings.Contains(out, "conserved true") {
		t.Errorf("drain summary missing or unconserved:\n%s", out)
	}
}

func TestParseWeights(t *testing.T) {
	if w, err := parseWeights("", 3); err != nil || fmt.Sprint(w) != "[1 1 1]" {
		t.Errorf("default weights = %v, %v", w, err)
	}
	if w, err := parseWeights("3, 1,2", 3); err != nil || fmt.Sprint(w) != "[3 1 2]" {
		t.Errorf("parsed weights = %v, %v", w, err)
	}
	for _, bad := range []string{"1,2", "1,2,3,4", "1,x,3", "0,1,2", "-1,1,1"} {
		if _, err := parseWeights(bad, 3); err == nil {
			t.Errorf("weights %q accepted", bad)
		}
	}
}

func TestBadFlagCombos(t *testing.T) {
	var out syncBuffer
	if code := realMain([]string{"-replicas", "0"}, &out, &out); code != 1 {
		t.Errorf("-replicas 0 exited %d, want 1", code)
	}
	if code := realMain([]string{"-route", "nonsense"}, &out, &out); code != 1 {
		t.Errorf("unknown route exited %d, want 1", code)
	}
	if code := realMain([]string{"-weights", "1,2", "-replicas", "3"}, &out, &out); code != 1 {
		t.Errorf("mismatched weights exited %d, want 1", code)
	}
	if code := realMain([]string{"-backends", "http://a,,http://b"}, &out, &out); code != 1 {
		t.Errorf("empty backend entry exited %d, want 1", code)
	}
}
