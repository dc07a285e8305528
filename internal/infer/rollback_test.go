package infer

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"helmsim/internal/model"
)

// failNthStore fails exactly the n-th Tensor access (1-based) with a
// transient error, once; every other access passes through. Unlike
// fault.Store it lives here so the test can sweep the failure point
// deterministically across every tensor fetch of a forward pass.
type failNthStore struct {
	backing WeightStore
	n       int
	count   int
	fired   bool
}

var errRollbackFault = errors.New("rollback_test: injected transient fault")

func (f *failNthStore) Tensor(layer int, name string) ([]float32, error) {
	f.count++
	if !f.fired && f.count == f.n {
		f.fired = true
		return nil, fmt.Errorf("L%d/%s: %w", layer, name, errRollbackFault)
	}
	return f.backing.Tensor(layer, name)
}

func rollbackConfig() model.Config {
	return model.Config{
		Name: "rollback-opt", Hidden: 32, Heads: 4, Blocks: 3,
		Vocab: 64, MaxSeq: 128, DTypeBytes: 2,
	}
}

// generateWithRetry drives a generation the way a resilient caller
// does: each failed Forward is retried verbatim. Before the rollback
// fix, a Forward that failed after block b had appended its K/V left
// blocks <= b one position ahead; the retry then double-appended into
// them, silently corrupting attention for the rest of the generation.
func generateWithRetry(t *testing.T, e *Engine, prompt []int, n int) []int {
	t.Helper()
	forward := func(tokens []int) int {
		for attempt := 0; ; attempt++ {
			logits, err := e.Forward(tokens)
			if err == nil {
				return logits.ArgmaxRow(0)
			}
			if !errors.Is(err, errRollbackFault) {
				t.Fatalf("unexpected forward error: %v", err)
			}
			if attempt > 2 {
				t.Fatalf("fault not absorbed after %d retries: %v", attempt, err)
			}
		}
	}
	out := make([]int, 0, n)
	next := forward(prompt)
	out = append(out, next)
	for len(out) < n {
		next = forward([]int{next})
		out = append(out, next)
	}
	return out
}

// TestForwardRollbackMidStep sweeps a transient fault across every
// tensor access of the first two forward passes (prefill and the first
// decode step — every layer, every block boundary) and asserts that a
// retried generation is byte-identical to the fault-free run. This is
// the regression test for the mid-step KV corruption bug: it fails
// against the pre-fix engine (no cache truncation on error) for every
// failure point past the first K/V append.
func TestForwardRollbackMidStep(t *testing.T) {
	cfg := rollbackConfig()
	w, err := RandomWeights(cfg, 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{3, 1, 4, 1, 5}
	const gen = 6

	base, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Generate(prompt, gen)
	if err != nil {
		t.Fatal(err)
	}

	// Count the accesses of the first two forward passes so the sweep
	// covers prefill and one decode step end to end.
	counter := &failNthStore{backing: w, n: -1}
	probe, err := New(cfg, counter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Generate(prompt, 2); err != nil {
		t.Fatal(err)
	}
	sweep := counter.count

	for n := 1; n <= sweep; n++ {
		fs := &failNthStore{backing: w, n: n}
		e, err := New(cfg, fs)
		if err != nil {
			t.Fatal(err)
		}
		got := generateWithRetry(t, e, prompt, gen)
		if !equalInts(got, want) {
			t.Fatalf("fault at access %d: tokens diverged after retry: got %v, want %v", n, got, want)
		}
	}
}

// TestBatchStepRollback does the same sweep through a stacked
// StepEngine.Step: a failed step must leave every block's cache exactly
// as before the step, so retrying the step reproduces the fault-free
// lockstep batch byte for byte.
func TestBatchStepRollback(t *testing.T) {
	cfg := rollbackConfig()
	w, err := RandomWeights(cfg, 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	prompts := [][]int{{3, 1, 4, 1, 5}, {9, 2, 6}}
	const gen = 5

	clean, err := NewStepEngine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lockstep(context.Background(), clean, prompts, gen)
	if err != nil {
		t.Fatal(err)
	}

	counter := &failNthStore{backing: w, n: -1}
	probe, err := NewStepEngine(cfg, counter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lockstep(context.Background(), probe, prompts, 2); err != nil {
		t.Fatal(err)
	}
	sweep := counter.count

	for n := 1; n <= sweep; n += 3 {
		se, err := NewStepEngine(cfg, &failNthStore{backing: w, n: n})
		if err != nil {
			t.Fatal(err)
		}
		seqs := make([]*StepSeq, len(prompts))
		for i, p := range prompts {
			seqs[i] = &StepSeq{Tokens: p, KV: NewBlockCaches(cfg)}
		}
		out := make([][]int, len(prompts))
		for tok := 0; tok < gen; tok++ {
			logits, err := se.Step(seqs)
			if err != nil {
				if !errors.Is(err, errRollbackFault) {
					t.Fatalf("fault at access %d: unexpected step error: %v", n, err)
				}
				// Retry the identical step; rollback must have made it safe.
				if logits, err = se.Step(seqs); err != nil {
					t.Fatalf("fault at access %d: retry failed: %v", n, err)
				}
			}
			for i, s := range seqs {
				next := logits[i].ArgmaxRow(0)
				out[i] = append(out[i], next)
				s.Pos += len(s.Tokens)
				s.Tokens = []int{next}
			}
		}
		for i := range out {
			if !equalInts(out[i], want[i]) {
				t.Fatalf("fault at access %d: sequence %d diverged: got %v, want %v", n, i, out[i], want[i])
			}
		}
	}
}

func equalInts(a, b []int) bool {
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
