package helmsim_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"helmsim"
)

// The public inference surface supports the full documented flow: random
// weights -> quantize -> checkpoint -> out-of-core generation.
func TestPublicInferenceFlow(t *testing.T) {
	cfg := helmsim.Model{
		Name: "pub-tiny", Hidden: 32, Heads: 4, Blocks: 2,
		Vocab: 64, MaxSeq: 64, DTypeBytes: 2,
	}
	raw, err := helmsim.RandomWeights(cfg, 9, 0.08)
	if err != nil {
		t.Fatal(err)
	}

	// In-memory quantized serving.
	qs, err := helmsim.QuantizeWeights(cfg, raw)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := helmsim.NewInferenceEngine(cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Generate([]int{1, 2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("generated %d tokens", len(out))
	}

	// Out-of-core serving from a checkpoint file.
	path := filepath.Join(t.TempDir(), "pub-tiny.hlmc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := helmsim.WriteWeightFile(f, cfg, raw, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := helmsim.OpenWeightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	eng2, err := helmsim.NewInferenceEngine(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := eng2.Generate([]int{1, 2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Both paths serve the same quantized weights: identical greedy output.
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("in-memory and file serving diverged at %d: %v vs %v", i, out, out2)
		}
	}
	if fs.Reads() == 0 {
		t.Errorf("file store served without disk reads")
	}

	// Prefetched out-of-core serving: same tokens, layers arriving via the
	// background pipeline, at an explicit parallelism setting.
	prev := helmsim.SetInferenceParallelism(2)
	defer helmsim.SetInferenceParallelism(prev)
	eng3, err := helmsim.NewPrefetchedBatchEngine(context.Background(), cfg, fs, 1, helmsim.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	out3, err := eng3.GenerateBatch([][]int{{1, 2, 3}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != out3[0][i] {
			t.Fatalf("prefetched serving diverged at %d: %v vs %v", i, out, out3[0])
		}
	}
	if hits, _ := eng3.PrefetchStats(); hits == 0 {
		t.Error("prefetcher never hit")
	}
}
