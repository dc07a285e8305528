package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helmsim/internal/fault"
	"helmsim/internal/infer"
	"helmsim/internal/quant"
)

// brownoutStore is a blackout switch over a backing store: while the
// shared flag is tripped, every read fails transiently — the storage
// incident the circuit breaker exists for. One instance wraps each
// opened generation; the flag is shared across them.
type brownoutStore struct {
	backing infer.WeightStore
	down    *atomic.Bool
}

func (b *brownoutStore) Tensor(layer int, name string) ([]float32, error) {
	if b.down.Load() {
		return nil, fmt.Errorf("brownout L%d/%s: %w", layer, name, fault.ErrTransient)
	}
	return b.backing.Tensor(layer, name)
}

// TensorPacked keeps the served chain on the packed path; a blackout
// fails a packed fetch like any other read.
func (b *brownoutStore) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	ps, ok := b.backing.(infer.PackedStore)
	if !ok {
		return quant.Packed{}, false, nil
	}
	p, ok, err := ps.TensorPacked(layer, name)
	if ok && b.down.Load() {
		return quant.Packed{}, false, fmt.Errorf("brownout L%d/%s: %w", layer, name, fault.ErrTransient)
	}
	return p, ok, err
}

// TestChaosLifecycle is the PR's acceptance test: one daemon driven
// through its whole life under -race — transient faults absorbed
// invisibly, hot reload mid-traffic with zero failed in-flight
// requests, a storage blackout tripping the breaker, half-open probe
// recovery, and a clean drain — with every served token byte-identical
// to a fault-free reference run and the admission ledger conserved.
func TestChaosLifecycle(t *testing.T) {
	mc := tinyModel()
	path, w := writeCheckpoint(t, mc, 42)

	// Fault-free reference outputs, one per distinct prompt.
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

	// The served chain: checkpoint file, CRC-verified on every open,
	// brownout switch, then a seeded 5% transient-fault injector. Each
	// reload builds a fresh injector over a fresh file handle.
	var blackout atomic.Bool
	var faultSeed atomic.Int64
	faultSeed.Store(1)
	openStore := func() (infer.WeightStore, io.Closer, error) {
		fs, err := infer.OpenFileStore(path)
		if err != nil {
			return nil, nil, err
		}
		if err := fs.Verify(); err != nil {
			fs.Close()
			return nil, nil, err
		}
		brown := &brownoutStore{backing: fs, down: &blackout}
		flaky, err := fault.NewStore(brown, fault.Plan{Seed: faultSeed.Add(1), TransientRate: 0.05})
		if err != nil {
			fs.Close()
			return nil, nil, err
		}
		return flaky, fs, nil
	}

	s, ts := startServer(t, Config{
		Model:     mc,
		OpenStore: openStore,
		Workers:   3,
		MaxQueue:  64,
		Retry:     infer.Retry{Max: 8, Sleep: noSleep},
		Breaker: BreakerConfig{
			Window: 16, MinSamples: 4, TripRate: 0.5,
			Cooldown: 20 * time.Millisecond, Probes: 1,
		},
	})

	// --- Phase 1: faults absorbed + hot reload under traffic ----------
	const rounds = 3
	const perRound = 8
	var wg sync.WaitGroup
	var failures atomic.Int64
	fire := func(i int) {
		defer wg.Done()
		p := i % nPrompts
		status, gr, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompts[p], MaxTokens: genTokens})
		if status != http.StatusOK {
			failures.Add(1)
			t.Errorf("request %d failed: %d (%s)", i, status, msg)
			return
		}
		for j := range want[p] {
			if gr.Tokens[j] != want[p][j] {
				failures.Add(1)
				t.Errorf("request %d tokens diverged under faults: %v vs %v", i, gr.Tokens, want[p])
				return
			}
		}
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			go fire(r*perRound + i)
		}
		// Hot reload in the middle of each round's traffic.
		if err := s.Reload(); err != nil {
			t.Fatalf("round %d reload: %v", r, err)
		}
		wg.Wait()
	}
	st := s.Stats()
	if failures.Load() != 0 {
		t.Fatalf("%d in-flight requests failed across %d hot reloads", failures.Load(), st.Reloads)
	}
	if st.Reloads != rounds {
		t.Errorf("reloads = %d, want %d", st.Reloads, rounds)
	}
	if st.Generation != rounds+1 {
		t.Errorf("generation = %d after %d reloads", st.Generation, rounds)
	}
	if st.StoreTransients == 0 {
		t.Errorf("fault injector never fired; the absorption claim is vacuous: %+v", st)
	}
	if st.Served != rounds*perRound {
		t.Errorf("served = %d, want %d", st.Served, rounds*perRound)
	}
	if st.Breaker.State != "closed" {
		t.Errorf("breaker tripped on absorbed 5%% faults: %+v", st.Breaker)
	}

	// --- Phase 2: blackout trips the breaker --------------------------
	blackout.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	tripped := false
	for time.Now().Before(deadline) {
		status, _, _ := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompts[0], MaxTokens: genTokens})
		if status == http.StatusOK {
			t.Fatal("request served during total storage blackout")
		}
		if s.Stats().Breaker.Trips > 0 && s.Stats().ShedBreakerOpen > 0 {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatalf("breaker never tripped under blackout: %+v", s.Stats())
	}

	// --- Phase 3: recovery through a half-open probe ------------------
	blackout.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		status, gr, _ := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompts[1], MaxTokens: genTokens})
		if status == http.StatusOK {
			for j := range want[1] {
				if gr.Tokens[j] != want[1][j] {
					t.Fatalf("post-recovery tokens diverged: %v vs %v", gr.Tokens, want[1])
				}
			}
			recovered = true
			break
		}
		time.Sleep(5 * time.Millisecond) // let the cooldown lapse
	}
	if !recovered {
		t.Fatalf("daemon never recovered after the blackout lifted: %+v", s.Stats())
	}
	st = s.Stats()
	if st.Breaker.State != "closed" || st.Breaker.Recoveries == 0 {
		t.Errorf("breaker did not close through a probe: %+v", st.Breaker)
	}

	// --- Phase 4: clean drain -----------------------------------------
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("clean drain errored: %v", err)
	}
	st = s.Stats()
	if st.State != "stopped" || st.ForceCancelled != 0 {
		t.Errorf("drain was not clean: %+v", st)
	}
	if !st.Conserved() {
		t.Errorf("final ledger not conserved: arrivals %d, admitted %d, shed %d/%d/%d/%d",
			st.Arrivals, st.Admitted, st.ShedQueueFull, st.ShedMaxWait, st.ShedBreakerOpen, st.ShedDraining)
	}
	// Post-drain, the swappable store is closed: a reload must fail
	// without disturbing the stopped state.
	if err := s.Reload(); err == nil {
		t.Error("reload after drain succeeded")
	}
}
