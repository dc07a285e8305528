package infer

import (
	"context"
	"testing"

	"helmsim/internal/model"
)

// lockstep greedily decodes n tokens for every prompt on se, all
// sequences in one Step per token over private block caches: the fixed
// batch the tests hold against the solo Engine. Like Engine's loop it
// checks ctx between steps and reuses one token array per sequence.
func lockstep(ctx context.Context, se *StepEngine, prompts [][]int, n int) ([][]int, error) {
	seqs := make([]*StepSeq, len(prompts))
	toks := make([][1]int, len(prompts))
	out := make([][]int, len(prompts))
	for i, p := range prompts {
		seqs[i] = &StepSeq{Tokens: p, KV: NewBlockCaches(se.Config())}
	}
	for t := 0; t < n; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		logits, err := se.Step(seqs)
		if err != nil {
			return nil, err
		}
		for i, s := range seqs {
			toks[i][0] = logits[i].ArgmaxRow(0)
			out[i] = append(out[i], toks[i][0])
			s.Pos += len(s.Tokens)
			s.Tokens = toks[i][:]
		}
	}
	return out, nil
}

// Lockstep batched decoding is exactly equivalent to running each sequence
// on its own engine: the KV caches are independent, only the weight
// traffic is shared.
func TestLockstepMatchesIndependentEngines(t *testing.T) {
	for _, cfg := range []struct {
		name string
		mc   func() model.Config
	}{
		{"opt", tinyOPT},
		{"llama", tinyLlama},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			mc := cfg.mc()
			ws, err := RandomWeights(mc, 17, 0.08)
			if err != nil {
				t.Fatal(err)
			}
			prompts := [][]int{{1, 2, 3}, {9, 4}, {7, 7, 7, 7}}

			se, err := NewStepEngine(mc, ws)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := lockstep(context.Background(), se, prompts, 6)
			if err != nil {
				t.Fatal(err)
			}

			for i, p := range prompts {
				solo, err := New(mc, ws)
				if err != nil {
					t.Fatal(err)
				}
				want, err := solo.Generate(p, 6)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if batched[i][j] != want[j] {
						t.Fatalf("seq %d diverged at token %d: %v vs %v", i, j, batched[i], want)
					}
				}
			}
		})
	}
}

// The weight-reuse property: with quantized weights, the engine's loader
// makes backing fetches (and checkpoint reads) independent of the batch
// size — FlexGen's zig-zag reuse, executable.
func TestLockstepWeightReuse(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 23, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	fetchesFor := func(nSeqs int) (fetches, reads int) {
		qs := memCheckpoint(t, mc, raw)
		se, err := NewStepEngine(mc, qs)
		if err != nil {
			t.Fatal(err)
		}
		prompts := make([][]int, nSeqs)
		for i := range prompts {
			prompts[i] = []int{1, 2}
		}
		if _, err := lockstep(context.Background(), se, prompts, 4); err != nil {
			t.Fatal(err)
		}
		return se.WeightFetches(), qs.Reads()
	}
	f1, d1 := fetchesFor(1)
	f8, d8 := fetchesFor(8)
	if f8 != f1 {
		t.Errorf("backing fetches scaled with batch: %d -> %d", f1, f8)
	}
	if d8 != d1 {
		t.Errorf("checkpoint reads scaled with batch: %d -> %d", d1, d8)
	}
}

// Step's own argument checks: a step with no tokens is refused,
// sequences with no tokens sit it out, and one sequence's context
// overflow fails the step.
func TestLockstepValidation(t *testing.T) {
	mc := tinyOPT()
	ws, _ := RandomWeights(mc, 1, 0.08)
	se, err := NewStepEngine(mc, ws)
	if err != nil {
		t.Fatal(err)
	}
	a := &StepSeq{KV: NewBlockCaches(mc)}
	b := &StepSeq{KV: NewBlockCaches(mc)}
	if _, err := se.Step([]*StepSeq{a, b}); err == nil {
		t.Errorf("empty step accepted")
	}
	// Skipped sequences keep their state: advance only sequence 0.
	a.Tokens = []int{1, 2}
	logits, err := se.Step([]*StepSeq{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if logits[0].R != 1 || logits[1].R != 0 || b.KV[0].Len() != 0 {
		t.Errorf("skip semantics broken")
	}
	// Context overflow per sequence.
	a.Pos, a.Tokens = 2, make([]int, mc.MaxSeq-1)
	if _, err := se.Step([]*StepSeq{a, b}); err == nil {
		t.Errorf("overflow accepted")
	}
}
