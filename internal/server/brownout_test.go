package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"helmsim/internal/infer"
	"helmsim/internal/serve"
)

// TestBrownoutEntersShedsAndExits drives the daemon's overload state
// machine through one full cycle: sustained cost backlog enters
// brownout, brownout sheds exactly the classes below its level with an
// honest Retry-After, and draining the backlog exits it — all
// deterministic (count-based observations, gated storage), all
// conserved per class.
func TestBrownoutEntersShedsAndExits(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 11)
	bs := &blockStore{backing: w}
	gate := make(chan struct{})
	bs.setGate(gate)

	s, ts := startServer(t, Config{
		Model:     mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) { return bs, nil, nil },
		Workers:   1,
		MaxQueue:  8,
		Cost: CostConfig{
			TokenBudget:        10,
			BrownoutHigh:       0.5, // backlog >= 5 is overload
			BrownoutLow:        0.3, // backlog <= 3 exits
			BrownoutSustain:    2,
			BrownoutRetryAfter: 3 * time.Second,
		},
	})

	// One interactive job pins the worker in gated storage with an
	// estimated cost of 1 prompt + 8 decode = 9 tokens: over the high
	// water mark, under the budget.
	j, status, _, _ := s.admit(context.Background(), []int{1}, 8, 0, serve.ClassInteractive)
	if j == nil {
		t.Fatalf("pinning admit shed with %d", status)
	}
	// Wait for the worker to pick the job up (and count it admitted), so
	// the mid-test conservation check is not racing the pickup.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Admitted < 1; {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the pinned job")
		}
		time.Sleep(time.Millisecond)
	}

	// First batch arrival observes backlog 9 (streak 1 of 2) and sheds on
	// the token budget, not brownout.
	_, status, _, _ = s.admit(context.Background(), []int{1}, 2, 0, serve.ClassBatch)
	if status != http.StatusTooManyRequests {
		t.Fatalf("pre-brownout batch shed status %d, want 429", status)
	}
	// Second batch arrival completes the sustain streak: brownout level 1,
	// batch shed with 503 and the configured Retry-After — over HTTP, so
	// the header contract is checked end to end.
	body, _ := json.Marshal(GenerateRequest{Prompt: []int{1}, MaxTokens: 2, Class: "batch"})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("brownout shed status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("brownout Retry-After %q, want %q", ra, "3")
	}

	// Classes at or above the level pass brownout and fall through to the
	// budget verdict instead: interactive and rag are degraded honestly
	// (429, still counted in their own rows), never brownout-shed. These
	// two over-high observations also complete a second sustain streak,
	// escalating the level to 2 — interactive (class 2) still passes.
	for _, c := range []serve.Class{serve.ClassRAG, serve.ClassInteractive} {
		_, status, _, _ = s.admit(context.Background(), []int{1}, 2, 0, c)
		if status != http.StatusTooManyRequests {
			t.Fatalf("class %v shed status %d during brownout, want 429", c, status)
		}
	}

	st := s.Stats()
	if st.BrownoutLevel != 2 || st.BrownoutEntries != 2 {
		t.Fatalf("brownout level %d entries %d, want 2/2", st.BrownoutLevel, st.BrownoutEntries)
	}
	if st.ShedBrownout != 1 || st.Classes[serve.ClassBatch].Ledger.Buckets[serve.ShedBrownout] != 1 {
		t.Fatalf("brownout sheds global %d batch-row %d, want 1/1", st.ShedBrownout, st.Classes[serve.ClassBatch].Ledger.Buckets[serve.ShedBrownout])
	}
	for _, c := range []serve.Class{serve.ClassRAG, serve.ClassInteractive} {
		if st.Classes[c].Ledger.Buckets[serve.ShedBrownout] != 0 {
			t.Fatalf("class %v brownout-shed during level 1", c)
		}
	}
	if !st.Conserved() {
		t.Fatalf("mid-brownout ledger not conserved: %+v", st)
	}

	// Drain: the pinned job settles, releaseCost observes backlog 0 <=
	// low water, and brownout exits completely — reversible, not latched.
	close(gate)
	bs.setGate(nil)
	<-j.done
	if j.err != nil {
		t.Fatalf("pinned job failed: %v", j.err)
	}

	st = s.Stats()
	if st.BrownoutLevel != 0 || st.BrownoutExits != 1 {
		t.Fatalf("post-drain brownout level %d exits %d, want 0/1", st.BrownoutLevel, st.BrownoutExits)
	}
	if st.CostBacklog != 0 {
		t.Fatalf("post-drain cost backlog %d, want 0", st.CostBacklog)
	}

	// Batch admission works again after the exit.
	j2, status, _, _ := s.admit(context.Background(), []int{1}, 2, 0, serve.ClassBatch)
	if j2 == nil {
		t.Fatalf("post-brownout batch admit shed with %d", status)
	}
	<-j2.done
	if j2.err != nil {
		t.Fatalf("post-brownout batch job failed: %v", j2.err)
	}
	st = s.Stats()
	if !st.Conserved() {
		t.Fatalf("final ledger not conserved: %+v", st)
	}
	if st.Classes[serve.ClassBatch].Ledger.Buckets[serve.Admitted] != 1 || st.Classes[serve.ClassInteractive].Ledger.Buckets[serve.Admitted] != 1 {
		t.Fatalf("per-class admits wrong: %+v", st.Classes)
	}
}

// TestDeadlineShedNeverStartsWork pins the deadline-aware early shed: a
// request whose effective deadline passed while it queued is settled
// with 504 in its own conserved bucket, and the engine never runs it.
func TestDeadlineShedNeverStartsWork(t *testing.T) {
	mc := tinyModel()
	_, w := writeCheckpoint(t, mc, 12)
	bs := &blockStore{backing: w}
	gate := make(chan struct{})
	bs.setGate(gate)

	s, _ := startServer(t, Config{
		Model:     mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) { return bs, nil, nil },
		Workers:   1,
		MaxQueue:  4,
	})

	// Pin the worker, then queue a request with a 1ms client deadline; by
	// the time the worker frees up the deadline is long gone.
	j1, status, _, _ := s.admit(context.Background(), []int{1}, 2, 0, serve.ClassInteractive)
	if j1 == nil {
		t.Fatalf("pinning admit shed with %d", status)
	}
	j2, status, _, _ := s.admit(context.Background(), []int{1}, 2, time.Millisecond, serve.ClassRAG)
	if j2 == nil {
		t.Fatalf("deadline admit shed with %d", status)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	bs.setGate(nil)
	<-j1.done
	<-j2.done
	if j1.err != nil {
		t.Fatalf("pinned job failed: %v", j1.err)
	}
	if j2.err == nil || j2.status != http.StatusGatewayTimeout {
		t.Fatalf("expired job settled with status %d err %v, want 504", j2.status, j2.err)
	}
	st := s.Stats()
	if st.ShedDeadline != 1 || st.Classes[serve.ClassRAG].Ledger.Buckets[serve.ShedDeadline] != 1 {
		t.Fatalf("deadline sheds global %d rag-row %d, want 1/1", st.ShedDeadline, st.Classes[serve.ClassRAG].Ledger.Buckets[serve.ShedDeadline])
	}
	if st.Served != 1 {
		t.Fatalf("served %d, want 1 (expired work must not run)", st.Served)
	}
	if !st.Conserved() {
		t.Fatalf("ledger not conserved: %+v", st)
	}
}
