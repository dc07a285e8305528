package server

import (
	"io"
	"net/http"
	"sync"
	"testing"

	"helmsim/internal/infer"
)

// TestBatchModePagePressureSheds: a request whose worst-case context
// exceeds the whole page budget sheds at admission into its own
// conserved bucket.
func TestBatchModePagePressureSheds(t *testing.T) {
	mc := tinyModel()
	path, _ := writeCheckpoint(t, mc, 5)
	s, ts := startServer(t, Config{
		Model: mc, OpenStore: fileOpener(path), Workers: 1, MaxTokens: 64,
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
			return fileOpener(p)()
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
