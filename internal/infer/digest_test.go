package infer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	_ "unsafe" // for go:linkname

	"helmsim/internal/model"
	"helmsim/internal/tensor"
)

// pinnedDigests are the SHA-256 of fmt.Sprint of the greedy tokens each
// case generates — bench-tiny and bench-ooc, f32 weights in a MemStore
// and the mmap'd 4-bit checkpoint. They were taken before the fused
// kernels decoded in registers and hold on every GOARCH: a kernel, a Go
// twin or a worker count that moves one bit of one logit far enough to
// flip an argmax shows up here as a different digest.
var pinnedDigests = map[string]string{
	"bench-tiny/f32": "034d7169c992b921ef425d7e8859ec51e0d5cb83e708f650a0c71b4610da9a44",
	"bench-tiny/q4":  "c369d43818aeb41569eaaae9cf39dac990bbc490b98f6bdc0025262b7b40d7f6",
	"bench-ooc/f32":  "9b3d4f8f63202a715bf680f22d4d70d46081af22620ec3414979b60f9633c856",
	"bench-ooc/q4":   "e22dcc4011e9b8f2bb229f3da4f5deeaf67b6b1625d591ef9518fe16aa160869",
}

// wideAccumulate is tensor's switch for the tall GEMM's register tiles
// (AVX where the CPU probe found it; always false off amd64), and
// tensorWide512 its switch for the 32-column tile on AVX-512;
// quantWide512 is quant's switch for the fused 4-bit GEMV's AVX-512
// body. The test turns them off to run the same cases on the SSE2
// bodies alone, and the 512-bit ones alone off to run them on AVX.
//
//go:linkname wideAccumulate helmsim/internal/tensor.wideAccumulate
var wideAccumulate bool

//go:linkname tensorWide512 helmsim/internal/tensor.wide512
var tensorWide512 bool

//go:linkname quantWide512 helmsim/internal/quant.wide512
var quantWide512 bool

// digestTokens generates the pinned cases' tokens: a 48-token prompt,
// then 24 greedy tokens.
func digestTokens(t *testing.T, cfg model.Config, w WeightStore) []int {
	t.Helper()
	prompt := make([]int, 48)
	for i := range prompt {
		prompt[i] = 1 + (i*37)%97
	}
	e, err := New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := e.Generate(prompt, 24)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

// Greedy tokens from the RandomWeights(cfg, 5, 0.08) weights carry the
// committed digests: in f32, and over the 4-bit checkpoint at one worker
// (every projection serial) and at two (the group-aligned column split)
// — each case at every vector level the host has: as probed, with the
// AVX-512 bodies (the 6x32 tile, the 16-lane GEMV) forced off, and with
// every wide body forced off.
func TestPinnedTokenDigests(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	probed, probedT512, probedQ512 := wideAccumulate, tensorWide512, quantWide512
	defer func() { wideAccumulate, tensorWide512, quantWide512 = probed, probedT512, probedQ512 }()
	type level struct {
		name          string
		wide, wide512 bool
	}
	levels := []level{{"as probed", probed, probedT512 || probedQ512}, {"AVX-512 off", probed, false}, {"all off", false, false}}
	for _, cfg := range []model.Config{benchTiny(), benchOOC()} {
		raw, err := RandomWeights(cfg, 5, 0.08)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStoreMmap(writeTestCheckpoint(t, cfg, 5))
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		for _, c := range []struct {
			name    string
			store   WeightStore
			workers int
		}{
			{"f32", raw, 1},
			{"q4", fs, 1},
			{"q4", fs, 2},
		} {
			for _, l := range levels {
				wideAccumulate = l.wide
				tensorWide512, quantWide512 = l.wide512 && probedT512, l.wide512 && probedQ512
				tensor.SetParallelism(c.workers)
				sum := sha256.Sum256([]byte(fmt.Sprint(digestTokens(t, cfg, c.store))))
				got, want := hex.EncodeToString(sum[:]), pinnedDigests[cfg.Name+"/"+c.name]
				if got != want {
					t.Errorf("%s/%s at %d workers, vector level %s: tokens digest %s, pinned %s", cfg.Name, c.name, c.workers, l.name, got, want)
				}
			}
		}
	}
}

// synthesizedSHA256 is the SHA-256 of the 4-bit checkpoint
// SynthesizeCheckpoint writes for model.Mini("opt", 45, 5, 2, 97) at
// seed 11. Its matrices hold odd element counts and short last groups
// (45·45, 97·45), so the digest covers every byte the encoder lays out:
// the record headers, each group's fp16 minimum and scale, full nibble
// bytes and a tensor's lone low nibble.
const synthesizedSHA256 = "47c33875aad5317975f928a9230a065753d6afe589dfae384a07235f7ec0537f"

// The encoder and the checkpoint writer emit exactly the pinned bytes:
// tokens could stay the same while a record's layout drifted, this
// cannot.
func TestSynthesizedCheckpointBytesPinned(t *testing.T) {
	cfg, err := model.Mini("opt", 45, 5, 2, 97)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mini.hlmc")
	if err := SynthesizeCheckpoint(path, cfg, 11, true); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != synthesizedSHA256 {
		t.Errorf("synthesized checkpoint (%d bytes) has sha256 %s, pinned %s", len(b), got, synthesizedSHA256)
	}
}
