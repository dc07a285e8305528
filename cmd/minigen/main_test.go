package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"helmsim/internal/infer"
	"helmsim/internal/model"
)

// The test model: small enough to run every flag combination in
// milliseconds.
const (
	tHidden, tHeads, tBlocks, tVocab = 32, 4, 2, 64
	tSeed                            = 7
	tPrompt                          = "1,2,3"
	tGen                             = 6
)

// minigen runs the command body with the test model and returns its
// stdout.
func minigen(t *testing.T, ckpt string, quantize bool, batch int, faultRate float64, retries int) string {
	t.Helper()
	var out bytes.Buffer
	err := run(context.Background(), &out, "opt", tHidden, tHeads, tBlocks, tVocab, tSeed, tPrompt, tGen,
		quantize, ckpt, batch, faultRate, 1, retries, 0)
	if err != nil {
		t.Fatalf("quantize=%v batch=%d fault-rate=%v: %v", quantize, batch, faultRate, err)
	}
	return out.String()
}

var seqLine = regexp.MustCompile(`(?m)^seq (\d+): +\[([0-9 ]+)\]$`)

// sequences parses the "seq N: [...]" lines.
func sequences(t *testing.T, out string) [][]int {
	t.Helper()
	var seqs [][]int
	for _, m := range seqLine.FindAllStringSubmatch(out, -1) {
		var toks []int
		for _, f := range strings.Fields(m[2]) {
			tok, err := strconv.Atoi(f)
			if err != nil {
				t.Fatal(err)
			}
			toks = append(toks, tok)
		}
		seqs = append(seqs, toks)
	}
	return seqs
}

// reference decodes the prompt of each of n sequences (minigen shifts
// the last token by the sequence number) on the solo engine, straight
// from the checkpoint a minigen run left behind.
func reference(t *testing.T, ckpt string, n int) [][]int {
	t.Helper()
	cfg := model.Config{
		Name: "mini-opt", Hidden: tHidden, Heads: tHeads, Blocks: tBlocks,
		Vocab: tVocab, MaxSeq: 2048, DTypeBytes: 2,
	}
	fs, err := infer.OpenFileStore(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	eng, err := infer.New(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int, n)
	for i := range want {
		eng.Reset()
		if want[i], err = eng.Generate([]int{1, 2, 3 + i}, tGen); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// Every way of running the same generation — alone or beside other
// sequences in the batcher — prints the solo engine's tokens for every
// sequence, over a raw and over a 4-bit checkpoint, and the prefetch
// report shows only the cold-start miss.
func TestMinigenTokensMatchSoloEngine(t *testing.T) {
	for _, quantize := range []bool{false, true} {
		ckpt := filepath.Join(t.TempDir(), "m.hlmc")
		var want [][]int
		for _, batch := range []int{1, 3} {
			name := fmt.Sprintf("quantize=%v batch=%d", quantize, batch)
			out := minigen(t, ckpt, quantize, batch, 0, 3)
			if want == nil {
				want = reference(t, ckpt, 3)
			}
			seqs := sequences(t, out)
			if len(seqs) != batch {
				t.Fatalf("%s: printed %d sequences\n%s", name, len(seqs), out)
			}
			for i := range seqs {
				if !slices.Equal(seqs[i], want[i]) {
					t.Errorf("%s: sequence %d = %v, solo engine says %v", name, i, seqs[i], want[i])
				}
			}
			if !strings.Contains(out, fmt.Sprintf("quantized=%v)", quantize)) || !strings.Contains(out, "tensor reads from disk") {
				t.Errorf("%s: report lines missing:\n%s", name, out)
			}
			if !strings.Contains(out, ", 1 foreground misses") {
				t.Errorf("%s: want exactly the cold-start miss:\n%s", name, out)
			}
		}
	}
}

var chaosLine = regexp.MustCompile(`chaos: (\d+)/\d+ reads failed transiently \(seed 1\), (\d+) degraded fetches, output unharmed`)

// Chaos mode: 5% of reads fail, the retry budget absorbs every one, the
// report says how many background fetches degraded, and the tokens are
// the fault-free ones.
func TestMinigenChaosOutputUnharmed(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "m.hlmc")
	out := minigen(t, ckpt, false, 1, 0.05, 8)
	want := reference(t, ckpt, 1)[0]
	if seqs := sequences(t, out); len(seqs) != 1 || !slices.Equal(seqs[0], want) {
		t.Errorf("tokens under faults = %v, want %v", seqs, want)
	}
	m := chaosLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no chaos report:\n%s", out)
	}
	if m[1] == "0" || m[2] == "0" {
		t.Errorf("chaos run injected %s faults and degraded %s fetches; want both positive", m[1], m[2])
	}
}

func TestMinigenRejectsBadInput(t *testing.T) {
	bad := []struct {
		name, arch, prompt string
		hidden, heads      int
		batch              int
	}{
		{"empty batch", "opt", tPrompt, tHidden, tHeads, 0},
		{"unknown arch", "bogus", tPrompt, tHidden, tHeads, 1},
		{"prompt not numbers", "opt", "1,x", tHidden, tHeads, 1},
		{"odd llama head width", "llama", tPrompt, 20, 4, 1}, // RoPE rotates pairs; 20/4 = 5
	}
	for _, c := range bad {
		var out bytes.Buffer
		err := run(context.Background(), &out, c.arch, c.hidden, c.heads, tBlocks, tVocab, tSeed, c.prompt, tGen,
			false, filepath.Join(t.TempDir(), "m.hlmc"), c.batch, 0, 1, 3, 0)
		// Rejected up front: before a checkpoint is written or a token run.
		if err == nil || out.Len() > 0 {
			t.Errorf("%s: err = %v after output:\n%s", c.name, err, out.String())
		}
	}
}
