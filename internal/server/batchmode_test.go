package server

import (
	"context"
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
	"helmsim/internal/quant"
)

// TestBatchModePagePressureSheds: a request whose worst-case context
// exceeds the whole page budget sheds at admission into its own
// conserved bucket.
func TestBatchModePagePressureSheds(t *testing.T) {
	mc := tinyModel()
	path, _ := writeCheckpoint(t, mc, 5)
	s, ts := startServer(t, Config{
		Model: mc, OpenStore: FileOpener(path, 0, 1), Workers: 1, MaxTokens: 64,
		// 4 pages of 4 = 16 positions total.
		Batch: BatchConfig{MaxSeqs: 2, KVPages: 4, PageTokens: 4},
	})
	code, _, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1, 2, 3, 4}, MaxTokens: 32})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("oversized request: status %d (%s)", code, msg)
	}
	st := s.Stats()
	if st.ShedPagePressure != 1 {
		t.Fatalf("shed_page_pressure: got %d, want 1: %+v", st.ShedPagePressure, st)
	}
	if !st.Conserved() {
		t.Fatalf("ledger not conserved: %+v", st)
	}
	// A right-sized request still serves.
	code, _, msg = postGenerate(t, ts.URL, GenerateRequest{Prompt: []int{1, 2, 3, 4}, MaxTokens: 8})
	if code != http.StatusOK {
		t.Fatalf("fitting request after shed: status %d (%s)", code, msg)
	}
}

// TestBatchModeHotReload: a reload retires the old batcher and serves
// later requests from the new generation's batcher, byte-identically
// to a solo engine on the new weights.
func TestBatchModeHotReload(t *testing.T) {
	mc := tinyModel()
	pathA, _ := writeCheckpoint(t, mc, 7)
	pathB, wB := writeCheckpoint(t, mc, 8)
	current := pathA
	var mu sync.Mutex
	s, ts := startServer(t, Config{
		Model: mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) {
			mu.Lock()
			p := current
			mu.Unlock()
			return FileOpener(p, 0, 1)()
		},
		Workers: 2,
		Batch:   BatchConfig{MaxSeqs: 2, KVPages: 64, PageTokens: 4},
	})

	prompt := []int{2, 4, 6}
	code, respA, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompt, MaxTokens: 6})
	if code != http.StatusOK {
		t.Fatalf("pre-reload request: status %d (%s)", code, msg)
	}

	mu.Lock()
	current = pathB
	mu.Unlock()
	if err := s.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}

	refB, err := infer.New(mc, wB)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refB.Generate(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}
	code, respB, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompt, MaxTokens: 6})
	if code != http.StatusOK {
		t.Fatalf("post-reload request: status %d (%s)", code, msg)
	}
	if respB.Generation <= respA.Generation {
		t.Fatalf("generation did not advance: %d -> %d", respA.Generation, respB.Generation)
	}
	if !equalTokenSlices(respB.Tokens, want) {
		t.Fatalf("post-reload tokens diverged from new weights: got %v, want %v", respB.Tokens, want)
	}
	// The new batcher starts with a cold prefix cache and pool.
	if st := s.Stats(); st.Batch == nil || st.Batch.Pool.TotalPages != 64 {
		t.Fatalf("batch snapshot after reload: %+v", st.Batch)
	}
}

func equalTokenSlices(a, b []int) bool {
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

// TestBatchModePackedFetchAccounting: over an mmap'd 4-bit checkpoint
// the serving chain (pinned generation → breaker accounting → prefetcher
// → engine) moves packed views, and the breaker layer counts them like
// any other fetch — one access per tensor the store served, whether it
// came back packed or (norm gains, biases) from the resident arena, none
// for the "no packed form" answer that reads nothing. Tokens stay the
// solo engine's.
func TestBatchModePackedFetchAccounting(t *testing.T) {
	mc := model.Config{Name: "packed-opt", Hidden: 64, Heads: 4, Blocks: 2, Vocab: 96, MaxSeq: 64, DTypeBytes: 2}
	w, err := infer.RandomWeights(mc, 9, 0.08)
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

	ref, err := infer.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	solo, err := infer.New(mc, ref)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{5, 6, 7}
	want, err := solo.Generate(prompt, 6)
	if err != nil {
		t.Fatal(err)
	}

	var served *infer.FileStore
	s, err := New(context.Background(), Config{
		Model: mc,
		OpenStore: func() (infer.WeightStore, io.Closer, error) {
			fs, err := infer.OpenFileStoreMmap(path)
			served = fs
			return fs, fs, err
		},
		Workers: 1,
		Batch:   BatchConfig{MaxSeqs: 2, KVPages: 32, PageTokens: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, ok := infer.WeightStore(served).(infer.PackedStore); !ok {
		t.Fatal("file store does not serve packed views")
	}
	code, gr, msg := postGenerate(t, ts.URL, GenerateRequest{Prompt: prompt, MaxTokens: 6})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, msg)
	}
	if !equalTokenSlices(gr.Tokens, want) {
		t.Fatalf("served tokens %v diverge from the solo engine's %v", gr.Tokens, want)
	}
	// Drain joins the prefetcher, so both counters are final.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// Every access is a file read or a fetch of a norm or bias the store
	// serves from its resident arena.
	_, resident := served.Resident()
	if reads := int64(served.Reads()); st.StoreAccesses != reads+int64(resident) || reads == 0 || resident == 0 {
		t.Errorf("breaker layer counted %d accesses for %d file reads and %d resident fetches", st.StoreAccesses, reads, resident)
	}
	if st.StoreTransients != 0 || st.Failed != 0 {
		t.Errorf("clean run recorded transients/failures: %+v", st)
	}
}
