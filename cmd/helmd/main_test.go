package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"helmsim/internal/infer"
	"helmsim/internal/model"
	"helmsim/internal/server"
)

// syncBuffer is a goroutine-safe capture of the daemon's output: the
// run goroutine and the SIGHUP handler both write to it while the test
// polls it.
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

// daemonArgs describe the smoke-test daemon: tiny model, 5% transient
// faults with a deep retry budget so every one is absorbed.
var daemonArgs = []string{
	"-addr", "127.0.0.1:0",
	"-hidden", "32", "-heads", "4", "-blocks", "2", "-vocab", "64",
	"-seed", "7", "-workers", "3",
	"-fault-rate", "0.05", "-fault-seed", "11", "-retries", "8",
	"-drain-timeout", "15s",
}

// baselineTokens recomputes, fault-free and in-process, exactly what
// the daemon above must serve: same flag-built config, same weight
// seed.
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

func getStats(t *testing.T, base string) (server.Stats, bool) {
	t.Helper()
	resp, err := http.Get(base + "/statz")
	if err != nil {
		return server.Stats{}, false
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statz decode: %v", err)
	}
	return st, true
}

// TestDaemonLifecycle is the e2e smoke: it runs realMain in-process
// under the race detector, delivers real SIGHUP and SIGTERM to the test
// binary, and requires concurrent traffic through a 5% fault rate and a
// mid-flight hot reload to come back byte-identical to the fault-free
// baseline — then a clean drain with exit code 0 and nothing dropped.
func TestDaemonLifecycle(t *testing.T) {
	const genTokens = 6
	prompts := [][]int{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}, {10, 11}}
	want := baselineTokens(t, prompts, genTokens)

	var stdout, stderrBuf syncBuffer
	exit := make(chan int, 1)
	go func() { exit <- realMain(daemonArgs, &stdout, &stderrBuf) }()

	// The daemon prints its resolved listen address once the socket is
	// bound; everything below talks to it over real HTTP.
	var base string
	waitFor(t, "listen address", 10*time.Second, func() bool {
		out := stdout.String()
		_, rest, ok := strings.Cut(out, "helmd: listening on ")
		if !ok {
			return false
		}
		addr, _, ok := strings.Cut(rest, "\n")
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

	// --- Concurrent traffic with a SIGHUP reload mid-flight -----------
	const rounds = 3
	const perRound = 8
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				status, gr, msg := post(i)
				if status != http.StatusOK {
					t.Errorf("round %d request %d: status %d (%s)", r, i, status, msg)
					return
				}
				checkTokens(i, gr)
			}(r*perRound + i)
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatalf("SIGHUP: %v", err)
		}
		wg.Wait()
		// The HUP handler runs asynchronously; make sure each round's
		// reload has landed before stacking the next on top.
		waitFor(t, fmt.Sprintf("reload %d", r+1), 10*time.Second, func() bool {
			st, ok := getStats(t, base)
			return ok && st.Reloads >= int64(r+1)
		})
	}
	st, ok := getStats(t, base)
	if !ok {
		t.Fatal("statz unreachable after traffic")
	}
	if st.Reloads < rounds {
		t.Errorf("reloads = %d, want >= %d", st.Reloads, rounds)
	}
	if st.StoreTransients == 0 {
		t.Error("fault injector never fired; the smoke proves nothing about fault absorption")
	}
	if st.Failed != 0 || st.Panics != 0 {
		t.Errorf("failures under chaos traffic: %+v", st)
	}

	// --- SIGTERM with requests still in flight -------------------------
	// Every request outstanding at the moment the signal lands must
	// either have been admitted (and then finish, byte-identical) or be
	// shed with the explicit draining 503 — never dropped or corrupted.
	var lateWG sync.WaitGroup
	var lateOK, lateShed, lateConn atomic.Int64
	for i := 0; i < perRound; i++ {
		lateWG.Add(1)
		go func(i int) {
			defer lateWG.Done()
			status, gr, msg := post(i)
			switch {
			case status == http.StatusOK:
				checkTokens(i, gr)
				lateOK.Add(1)
			case status == http.StatusServiceUnavailable && msg == "draining":
				lateShed.Add(1)
			case status == 0:
				// Never reached the daemon: the listener closed first, so
				// this was not an in-flight request. Counted, not failed.
				lateConn.Add(1)
			default:
				t.Errorf("late request %d: status %d (%s)", i, status, msg)
			}
		}(i)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	lateWG.Wait()

	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d after SIGTERM, want 0\nstderr:\n%s", code, stderrBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM\nstdout:\n%s\nstderr:\n%s", stdout.String(), stderrBuf.String())
	}

	// The drain summary is the daemon's own account of the shutdown:
	// nothing failed, nothing force-cancelled.
	var served, failed, shed, forced, reloads, transients int64
	sumLine := ""
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "helmd: drained:") {
			sumLine = line
		}
	}
	if sumLine == "" {
		t.Fatalf("no drain summary in stdout:\n%s", stdout.String())
	}
	if _, err := fmt.Sscanf(sumLine,
		"helmd: drained: served %d, failed %d, shed %d, force-cancelled %d, reloads %d, transients absorbed %d",
		&served, &failed, &shed, &forced, &reloads, &transients); err != nil {
		t.Fatalf("unparseable drain summary %q: %v", sumLine, err)
	}
	if failed != 0 || forced != 0 {
		t.Errorf("drain dropped work: failed %d, force-cancelled %d", failed, forced)
	}
	if got := int64(rounds*perRound) + lateOK.Load(); served != got {
		t.Errorf("served = %d, want %d (%d rounds + %d late)", served, got, rounds*perRound, lateOK.Load())
	}
	if served+shed < int64(rounds*perRound)+lateOK.Load()+lateShed.Load() {
		t.Errorf("ledger lost requests: served %d + shed %d < %d seen by the client",
			served, shed, int64(rounds*perRound)+lateOK.Load()+lateShed.Load())
	}
	if transients == 0 {
		t.Error("summary reports zero absorbed transients under a 5%% fault plan")
	}
}

// TestFlagErrors pins the CLI contract: bad flags exit 2 without
// starting anything, -h exits 0.
func TestFlagErrors(t *testing.T) {
	var out, errBuf syncBuffer
	if code := realMain([]string{"-no-such-flag"}, &out, &errBuf); code != 2 {
		t.Errorf("unknown flag exit = %d, want 2", code)
	}
	// The worker-pool mode and its -batch switch are gone: the batcher is
	// the only serving path, and asking for it by flag is a usage error.
	var outB, errBufB syncBuffer
	if code := realMain([]string{"-batch"}, &outB, &errBufB); code != 2 {
		t.Errorf("-batch exit = %d, want 2", code)
	}
	var out2, errBuf2 syncBuffer
	if code := realMain([]string{"-h"}, &out2, &errBuf2); code != 0 {
		t.Errorf("-h exit = %d, want 0", code)
	}
	if !strings.Contains(errBuf2.String(), "-drain-timeout") {
		t.Error("usage text missing flags")
	}
	var out3, errBuf3 syncBuffer
	if code := realMain([]string{"-arch", "bogus"}, &out3, &errBuf3); code != 1 {
		t.Errorf("bad arch exit = %d, want 1", code)
	}
	// A LLaMA head width must be even (RoPE rotates pairs): 20/4 = 5.
	var out4, errBuf4 syncBuffer
	if code := realMain([]string{"-arch", "llama", "-hidden", "20", "-heads", "4"}, &out4, &errBuf4); code != 1 {
		t.Errorf("odd llama head width exit = %d, want 1", code)
	}
	if !strings.Contains(errBuf4.String(), "rotary") {
		t.Errorf("odd llama head width: stderr %q does not name the rotary pairs", errBuf4.String())
	}
}
