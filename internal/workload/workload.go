// Package workload generates synthetic serving workloads standing in for
// the paper's C4/realnewslike prompts (§III-B). The experiments only
// consume prompt and output lengths — the input is truncated to 128 tokens
// and 21 tokens are generated — so a seeded token generator with realistic
// length statistics exercises the same code paths as the real dataset.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Prompt is one request's input.
type Prompt struct {
	// Tokens is the token sequence.
	Tokens []int
}

// Len is the prompt length in tokens.
func (p Prompt) Len() int { return len(p.Tokens) }

// Generator produces seeded synthetic prompts.
type Generator struct {
	rng   *rand.Rand
	vocab int
}

// NewGenerator returns a deterministic generator over the given vocabulary.
func NewGenerator(seed int64, vocab int) (*Generator, error) {
	if vocab <= 0 {
		return nil, fmt.Errorf("workload: non-positive vocab %d", vocab)
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), vocab: vocab}, nil
}

// NaturalPrompts produces n prompts with log-normally distributed lengths
// (median ~= median tokens, capped at maxLen), the shape of natural text
// corpora like C4.
func (g *Generator) NaturalPrompts(n, median, maxLen int) ([]Prompt, error) {
	if n < 0 || median <= 0 || maxLen < median {
		return nil, fmt.Errorf("workload: bad natural prompt request (n=%d, median=%d, max=%d)", n, median, maxLen)
	}
	out := make([]Prompt, 0, n)
	mu := math.Log(float64(median))
	const sigma = 0.6
	for i := 0; i < n; i++ {
		l := int(math.Exp(mu + sigma*g.rng.NormFloat64()))
		if l < 1 {
			l = 1
		}
		if l > maxLen {
			l = maxLen
		}
		out = append(out, Prompt{Tokens: g.tokens(l)})
	}
	return out, nil
}

// tokens draws a token sequence with a Zipf-ish skew toward frequent ids,
// matching natural-language token statistics closely enough for sizing.
func (g *Generator) tokens(n int) []int {
	ts := make([]int, n)
	for i := range ts {
		// Square a uniform draw to skew toward small token ids.
		u := g.rng.Float64()
		ts[i] = int(u * u * float64(g.vocab))
		if ts[i] >= g.vocab {
			ts[i] = g.vocab - 1
		}
	}
	return ts
}
