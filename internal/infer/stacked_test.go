package infer

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// stackOPT and stackLlama are the tiny models at a width the fused
// kernels take: hidden 64 is one quantization group, so Q/out, the FFN
// and the token table run fused and decode by row, while the Llama
// variant's grouped K/V projections (width 32) fall back to the slab —
// both routes inside one forward pass.
func stackOPT() model.Config {
	return model.Config{Name: "OPT-stack", Hidden: 64, Heads: 4, Blocks: 2, Vocab: 96, MaxSeq: 48, DTypeBytes: 2}
}

func stackLlama() model.Config {
	c := model.Config{Name: "Llama-stack", Hidden: 64, Heads: 4, Blocks: 2, Vocab: 96, MaxSeq: 48, DTypeBytes: 2}
	return c.WithLlama(2, 128)
}

// stackSchedule is what sequences A, B, C feed step by step (nil sits
// the step out; a zero entry is replaced by the sequence's last argmax):
// prefills of different lengths, a prefill riding with decode rows in a
// step taller than the fused limit, short all-decode steps, a sequence
// skipping a step.
var stackSchedule = [][3][]int{
	{{1, 2, 3, 4, 5}, {9, 4}, nil},
	{{0}, {0}, {7, 7, 8, 1, 2, 3, 4, 5, 6}},
	{{0}, {0}, {0}},
	{nil, {0}, {0}},
	{{0}, {0}, {0}},
}

// stackStores opens the weight stores the property is checked over: f32
// in memory, the 4-bit checkpoint in memory decoded per fetch, and the
// 4-bit checkpoint through read and mmap file stores (the two that hand
// out packed views).
func stackStores(t *testing.T, cfg model.Config, seed int64) map[string]WeightStore {
	t.Helper()
	raw, err := RandomWeights(cfg, seed, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	qs := decodeOnly{memCheckpoint(t, cfg, raw)}
	path := writeTestCheckpoint(t, cfg, seed)
	file, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFileStoreMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close(); mapped.Close() })
	return map[string]WeightStore{"raw": raw, "quantized": qs, "file": file, "mmap": mapped}
}

// feed resolves one schedule entry against the sequence's last argmax.
func feed(entry []int, last int) []int {
	if len(entry) == 1 && entry[0] == 0 {
		return []int{last}
	}
	return entry
}

func sameLogits(t *testing.T, what string, want, got tensor.Mat) {
	t.Helper()
	if want.R != got.R || want.C != got.C {
		t.Fatalf("%s: logits %dx%d, want %dx%d", what, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: logit %d = %v (%#08x), solo %v (%#08x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// The property that keeps the solo engine an honest oracle: a step over
// stacked sequences gives every sequence the logits, bit for bit, that
// one-sequence steps give it — whatever rides along, whichever kernel
// (dense, fused, slab) its rows went through, on every store.
func TestStackedStepMatchesSoloSteps(t *testing.T) {
	for _, cfg := range []model.Config{stackOPT(), stackLlama()} {
		for name, store := range stackStores(t, cfg, 61) {
			t.Run(cfg.Name+"/"+name, func(t *testing.T) {
				se, err := NewStepEngine(cfg, store)
				if err != nil {
					t.Fatal(err)
				}
				var seqs [3]*StepSeq
				var solos [3]*Engine
				var last [3]int
				for i := range seqs {
					seqs[i] = &StepSeq{KV: NewBlockCaches(cfg)}
					if solos[i], err = New(cfg, store); err != nil {
						t.Fatal(err)
					}
				}
				for step, entries := range stackSchedule {
					for i, entry := range entries {
						seqs[i].Tokens = feed(entry, last[i])
					}
					out, err := se.Step(seqs[:])
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for i, s := range seqs {
						if len(s.Tokens) == 0 {
							if out[i].R != 0 {
								t.Fatalf("step %d: skipped sequence %d got logits", step, i)
							}
							continue
						}
						want, err := solos[i].Forward(s.Tokens)
						if err != nil {
							t.Fatal(err)
						}
						sameLogits(t, fmt.Sprintf("step %d sequence %d", step, i), want, out[i])
						s.Pos += len(s.Tokens)
						last[i] = out[i].ArgmaxRow(0)
					}
				}
			})
		}
	}
}

// forkOPT and forkLlama are wide enough that a step forks everything
// that can fork — the dense and fused GEMVs (256x256 and up), the
// decode-width activation, and, with prompts past 64 tokens, the
// attention core of a single decode row — at one block, to stay small
// enough to sweep stores and worker counts under the race detector. The Llama variant is grouped-query:
// four query heads share each K/V slice, so forked attention items on
// different goroutines read the same cache rows.
func forkOPT() model.Config {
	return model.Config{Name: "OPT-fork", Hidden: 256, Heads: 8, Blocks: 1, Vocab: 512, MaxSeq: 96, DTypeBytes: 2}
}

func forkLlama() model.Config {
	c := model.Config{Name: "Llama-fork", Hidden: 256, Heads: 8, Blocks: 1, Vocab: 512, MaxSeq: 96, DTypeBytes: 2}
	return c.WithLlama(2, 512)
}

// forkSchedule is stackSchedule at fork width: two long prefills, a
// third riding with two decode rows, then all-decode steps over 66-73
// cached positions.
func forkSchedule() [][3][]int {
	prompt := func(n, salt int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = 1 + (i*7+salt)%500
		}
		return p
	}
	return [][3][]int{
		{prompt(70, 1), prompt(65, 2), nil},
		{{0}, {0}, prompt(68, 3)},
		{{0}, {0}, {0}},
		{{0}, {0}, {0}},
	}
}

// Forked execution is pinned to the serial loop: the same mixed prefill
// + decode schedule gives every sequence the same logits, bit for bit,
// at one worker (where nothing forks) and at 2, 3 and 8 — even and odd
// splits, and more chunks than this host has cores — over OPT and
// grouped-query Llama, on f32 weights (the dense kernels) and the mmap'd
// 4-bit checkpoint (fused kernels at decode, the slab under prefills).
func TestStackedStepParallelismInvariance(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	for _, cfg := range []model.Config{forkOPT(), forkLlama()} {
		stores := stackStores(t, cfg, 73)
		for _, name := range []string{"raw", "mmap"} {
			store := stores[name]
			t.Run(cfg.Name+"/"+name, func(t *testing.T) {
				// run drives the schedule at one worker count and returns
				// every advanced sequence's logits, step by step.
				run := func(par int) [][]float32 {
					tensor.SetParallelism(par)
					se, err := NewStepEngine(cfg, store)
					if err != nil {
						t.Fatal(err)
					}
					var seqs [3]*StepSeq
					var last [3]int
					for i := range seqs {
						seqs[i] = &StepSeq{KV: NewBlockCaches(cfg)}
					}
					var all [][]float32
					for step, entries := range forkSchedule() {
						for i, entry := range entries {
							seqs[i].Tokens = feed(entry, last[i])
						}
						out, err := se.Step(seqs[:])
						if err != nil {
							t.Fatalf("par %d step %d: %v", par, step, err)
						}
						for i, s := range seqs {
							if len(s.Tokens) == 0 {
								continue
							}
							all = append(all, append([]float32(nil), out[i].Data...))
							s.Pos += len(s.Tokens)
							last[i] = out[i].ArgmaxRow(0)
						}
					}
					return all
				}
				want := run(1)
				for _, par := range []int{2, 3, 8} {
					got := run(par)
					for i := range want {
						sameLogits(t, fmt.Sprintf("par %d, logits row %d", par, i),
							tensor.Mat{R: 1, C: len(want[i]), Data: want[i]}, tensor.Mat{R: 1, C: len(got[i]), Data: got[i]})
					}
				}
			})
		}
	}
}

// faultyFile fails its n-th access (1-based), whichever fetch path it
// arrives on, and otherwise forwards every path of the file store under
// it — so the engine above keeps its packed views and fused kernels
// while the fault point sweeps a step.
type faultyFile struct {
	*FileStore
	n, count int
}

func (f *faultyFile) hit(layer int, name string) error {
	f.count++
	if f.count == f.n {
		return fmt.Errorf("L%d/%s: %w", layer, name, errRollbackFault)
	}
	return nil
}

func (f *faultyFile) Tensor(layer int, name string) ([]float32, error) {
	if err := f.hit(layer, name); err != nil {
		return nil, err
	}
	return f.FileStore.Tensor(layer, name)
}

func (f *faultyFile) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	if err := f.hit(layer, name); err != nil {
		return nil, err
	}
	return f.FileStore.TensorInto(layer, name, dst)
}

func (f *faultyFile) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	p, ok, err := f.FileStore.TensorPacked(layer, name)
	if ok && err == nil {
		err = f.hit(layer, name)
	}
	return p, ok && err == nil, err
}

// A store fault anywhere inside a stacked step leaves every sequence's
// KV at its Pos, and the retried step reproduces the fault-free logits
// bit for bit: stacking did not weaken the step's atomicity.
func TestStackedStepFaultIsAtomic(t *testing.T) {
	cfg := stackOPT()
	fs, err := OpenFileStoreMmap(writeTestCheckpoint(t, cfg, 67))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// run drives the first two schedule steps (a prefill step, then the
	// mixed one) with the fault at access n of the second, and returns
	// that step's logits and its access count.
	run := func(n int) ([3][]float32, int) {
		store := &faultyFile{FileStore: fs, n: -1}
		se, err := NewStepEngine(cfg, store)
		if err != nil {
			t.Fatal(err)
		}
		var seqs [3]*StepSeq
		for i := range seqs {
			seqs[i] = &StepSeq{KV: NewBlockCaches(cfg), Tokens: stackSchedule[0][i]}
		}
		out, err := se.Step(seqs[:])
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range seqs {
			s.Pos += len(s.Tokens)
			last := 0
			if len(s.Tokens) > 0 {
				last = out[i].ArgmaxRow(0)
			}
			s.Tokens = feed(stackSchedule[1][i], last)
		}
		before := store.count
		if n > 0 {
			store.n = before + n
			if _, err := se.Step(seqs[:]); !errors.Is(err, errRollbackFault) {
				t.Fatalf("fault at access %d: step err = %v", n, err)
			}
			for i, s := range seqs {
				for b, kv := range s.KV {
					if kv.Len() != s.Pos {
						t.Fatalf("fault at access %d: sequence %d block %d holds %d positions, Pos %d", n, i, b, kv.Len(), s.Pos)
					}
				}
			}
		}
		accesses := store.count
		out, err = se.Step(seqs[:])
		if err != nil {
			t.Fatalf("fault at access %d: retry: %v", n, err)
		}
		var logits [3][]float32
		for i := range out {
			logits[i] = append([]float32(nil), out[i].Data...)
		}
		return logits, accesses - before
	}

	want, sweep := run(0)
	for n := 1; n <= sweep; n++ {
		got, _ := run(n)
		for i := range want {
			sameLogits(t, fmt.Sprintf("fault at access %d, sequence %d", n, i),
				tensor.Mat{R: 1, C: len(want[i]), Data: want[i]}, tensor.Mat{R: 1, C: len(got[i]), Data: got[i]})
		}
	}
}

// A step is validated whole before anything is taken from the arena or
// appended: a bad token in the second sequence used to return after the
// first had been embedded, leaking its activation matrix.
func TestStepLateValidationErrorLeaksNothing(t *testing.T) {
	cfg := tinyOPT()
	raw, err := RandomWeights(cfg, 71, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStepEngine(cfg, raw)
	if err != nil {
		t.Fatal(err)
	}
	a := &StepSeq{KV: NewBlockCaches(cfg), Tokens: []int{1, 2, 3}}
	b := &StepSeq{KV: NewBlockCaches(cfg), Tokens: []int{4, 5, 6}}
	seqs := []*StepSeq{a, b}
	for i := 0; i < 2; i++ { // two good steps of one shape fill the free list
		if _, err := se.Step(seqs); err != nil {
			t.Fatal(err)
		}
		a.Pos += 3
		b.Pos += 3
	}
	se.reclaim()
	idle := se.ar.Idle()

	b.Tokens = []int{4, cfg.Vocab, 6}
	if _, err := se.Step(seqs); err == nil {
		t.Fatal("out-of-vocab token accepted")
	}
	if got := se.ar.Idle(); got != idle {
		t.Errorf("arena holds %d idle matrices after the rejected step, %d before: the step leaked", got, idle)
	}
	for i, s := range seqs {
		for blk, kv := range s.KV {
			if kv.Len() != s.Pos {
				t.Errorf("sequence %d block %d holds %d positions after the rejected step, Pos %d", i, blk, kv.Len(), s.Pos)
			}
		}
	}
	// A wrong KV block count in a later sequence is caught the same way.
	b.Tokens, b.KV = []int{4, 5, 6}, b.KV[:1]
	if _, err := se.Step(seqs); err == nil {
		t.Fatal("short KV accepted")
	}
	if got := se.ar.Idle(); got != idle {
		t.Errorf("arena holds %d idle matrices after the second rejected step, %d before", got, idle)
	}
}
