package infer

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"helmsim/internal/fault"
	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// weightCount is the total tensor count across the model's layers — the
// per-step backing-store fetch count of a step engine.
func weightCount(cfg model.Config) int {
	n := 0
	for _, l := range cfg.Layers() {
		n += len(l.Weights)
	}
	return n
}

// residentCount is how many of a forward pass's tensors a FileStore
// serves from its resident arena: the norm gains, biases and norm shifts.
// The rest, weightCount minus these, read the file.
func residentCount(cfg model.Config) int {
	n := 0
	for _, l := range cfg.Layers() {
		for _, w := range l.Weights {
			if residentParam(w.Name) {
				n++
			}
		}
	}
	return n
}

// Steady-state single-token decode over an in-memory store must not
// touch the heap at all: activations come from the engine's arena, KV
// rows land in preallocated slabs, scores use the engine's scratch row,
// and MemStore serves zero-copy views. Kernel parallelism is pinned to
// 1 because testing.AllocsPerRun runs at GOMAXPROCS 1 anyway; the forked
// gates below count where the pool's worker really takes chunks.
func TestDecodeAllocsMemStoreZero(t *testing.T) {
	for _, cfg := range []model.Config{tinyOPT(), tinyLlama()} {
		prev := tensor.SetParallelism(1)
		step := soloDecodeStep(t, newEngine(t, cfg, 11))
		allocs := testing.AllocsPerRun(10, step)
		tensor.SetParallelism(prev)
		if allocs != 0 {
			t.Errorf("%s: steady-state decode allocates %.1f objects/token, want 0", cfg.Name, allocs)
		}
	}
}

// soloDecodeStep prefills a three-token prompt and returns the engine's
// single-token decode step, already run three times so the arena, KV
// slabs, retained-logits list and any recycled weight buffers have
// reached their steady-state shapes.
func soloDecodeStep(t *testing.T, e *Engine) func() {
	t.Helper()
	if _, err := e.Forward([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	step := func() {
		e.stepTok[0] = 5
		if _, err := e.Forward(e.stepTok[:]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	return step
}

// The step engine reads a resident MemStore through its loader; the
// loader must take the store's zero-copy views there, not the copying
// Tensor path (which cost a full copy of the model per token), and
// recycle its bundle maps. No objects per step means no bytes per step.
func TestStepDecodeAllocsMemStoreZero(t *testing.T) {
	cfg := tinyOPT()
	raw, err := RandomWeights(cfg, 13, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStepEngine(cfg, raw)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := stepDecodeAllocs(t, cfg, se); allocs != 0 {
		t.Errorf("resident step decode allocates %.1f objects/step, want 0", allocs)
	}
}

// stepDecode prefills a three-token prompt and returns the engine's
// single-token step, already run enough times that the arena, KV slabs
// and any recycled weight buffers have reached their steady-state
// shapes. Kernel parallelism stays at one worker until the test ends
// (see TestDecodeAllocsMemStoreZero).
func stepDecode(t *testing.T, cfg model.Config, se *StepEngine) func() {
	t.Helper()
	prev := tensor.SetParallelism(1)
	t.Cleanup(func() { tensor.SetParallelism(prev) })
	step, _ := decodeStepper(t, cfg, se, []int{1, 2, 3}, 3)
	return step
}

// decodeStepper prefills prompt on a fresh sequence and returns the
// engine's single-token step for it, already run warm times, with the
// sequence (for callers that rewind it).
func decodeStepper(tb testing.TB, cfg model.Config, se *StepEngine, prompt []int, warm int) (func(), *StepSeq) {
	tb.Helper()
	seq := &StepSeq{Tokens: prompt, Pos: 0, KV: NewBlockCaches(cfg)}
	seqs := []*StepSeq{seq}
	var tok [1]int
	step := func() {
		if _, err := se.Step(seqs); err != nil {
			tb.Fatal(err)
		}
		seq.Pos += len(seq.Tokens)
		tok[0] = 7
		seq.Tokens = tok[:]
	}
	for i := 0; i <= warm; i++ { // the prefill, then warm decode steps
		step()
	}
	return step, seq
}

// stepDecodeAllocs reports stepDecode's steady-state allocations per
// step.
func stepDecodeAllocs(t *testing.T, cfg model.Config, se *StepEngine) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, stepDecode(t, cfg, se))
}

// A step engine decoding a 4-bit checkpoint stops allocating once the
// loader's recycled buffers have seen one full layer cycle: every
// dequantization decodes into a buffer of a layer the engine has left.
func TestStepDecodeAllocsQuantRecycledZero(t *testing.T) {
	cfg := tinyOPT()
	raw, err := RandomWeights(cfg, 13, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStepEngine(cfg, decodeOnly{memCheckpoint(t, cfg, raw)})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := stepDecodeAllocs(t, cfg, se); allocs != 0 {
		t.Errorf("quant step decode allocates %.1f objects/step, want 0", allocs)
	}
}

// The zero-allocation gates above pin one worker, where no kernel forks.
// This one runs where they all do: on a fork-width model (hidden 384:
// every GEMV, the decode-width GELU, and — past 43 cached positions —
// the attention core split over the pool) at two workers on two
// processors, with the pool's worker really taking chunks. A decode step
// must still allocate nothing: the pool's descriptor is reused, and the
// kernels and attend hand it func values they built once, not per-call
// closures. Counted from the runtime's malloc counter, because
// testing.AllocsPerRun drops GOMAXPROCS to 1 and so never lets a worker
// in.
func TestStepDecodeAllocsForkedZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer tensor.SetParallelism(tensor.SetParallelism(2))
	cfg := oocShaped()
	raw, err := RandomWeights(cfg, 13, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStepEngine(cfg, raw)
	if err != nil {
		t.Fatal(err)
	}
	prompt := make([]int, 44)
	for i := range prompt {
		prompt[i] = 1 + i
	}
	step, _ := decodeStepper(t, cfg, se, prompt, 2)
	// 44 + 2 + 3*5 positions fit MaxSeq 64.
	if got := mallocsPerStep(step, 5); got != 0 {
		t.Errorf("forked decode allocates %.1f objects/step at two workers, want 0", got)
	}
}

// mallocsPerStep is the fewest heap objects allocated per call of step
// over three windows of steps calls each, from the runtime's counter. The
// counter is process-wide, so a runtime goroutine's stray allocation
// could land in one window; a real per-step allocation lands in all.
func mallocsPerStep(step func(), steps int) float64 {
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < steps; i++ {
			step()
		}
		runtime.ReadMemStats(&m1)
		best = min(best, m1.Mallocs-m0.Mallocs)
	}
	return float64(best) / float64(steps)
}

// packedMemStore serves a MemStore's matrices as packed 4-bit views of
// in-memory blobs and its norm and bias vectors as the MemStore's own
// views: the packed path with no file (and so no record keys) under it,
// which lets a step over packed weights be held to zero allocations.
type packedMemStore struct {
	*MemStore
	packed map[storeKey]quant.Packed
}

func newPackedMemStore(t *testing.T, cfg model.Config, raw *MemStore) packedMemStore {
	t.Helper()
	s := packedMemStore{raw, make(map[storeKey]quant.Packed)}
	for _, l := range cfg.Layers() {
		for _, w := range l.Weights {
			if isNormParam(w.Name) || isBiasParam(w.Name) {
				continue
			}
			data, err := raw.TensorView(l.Index, w.Name)
			if err != nil {
				t.Fatal(err)
			}
			qt, err := quant.Quantize(data, quant.Default())
			if err != nil {
				t.Fatal(err)
			}
			blob, err := qt.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			p, err := quant.ViewPacked(blob)
			if err != nil {
				t.Fatalf("ViewPacked L%d/%s: %v", l.Index, w.Name, err)
			}
			s.packed[storeKey{l.Index, w.Name}] = p
		}
	}
	return s
}

// TensorPacked implements PackedStore.
func (s packedMemStore) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	p, ok := s.packed[storeKey{layer, name}]
	return p, ok, nil
}

// The forked gate at a prefill's shape: twelve rows — past fusedMaxRows,
// so every packed projection is dequantized whole into the engine's slab
// and run through the dense kernel — at two workers on two processors.
// The slab decode forks like the kernels do, through a descriptor built
// once; when it handed the pool a func literal instead, each of the
// step's packed tensors cost a heap object and this read 12 per step.
func TestStepPrefillAllocsForkedZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer tensor.SetParallelism(tensor.SetParallelism(2))
	cfg := oocShaped()
	raw, err := RandomWeights(cfg, 13, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStepEngine(cfg, newPackedMemStore(t, cfg, raw))
	if err != nil {
		t.Fatal(err)
	}
	prompt := make([]int, fusedMaxRows+4)
	for i := range prompt {
		prompt[i] = 1 + i
	}
	seq := &StepSeq{KV: NewBlockCaches(cfg)}
	seqs := []*StepSeq{seq}
	prefill := func() {
		seq.Tokens, seq.Pos = prompt, 0
		for _, kv := range seq.KV {
			kv.Truncate(0)
		}
		if _, err := se.Step(seqs); err != nil {
			t.Fatal(err)
		}
	}
	prefill()
	prefill()
	if se.slab == nil {
		t.Fatal("a step taller than fusedMaxRows did not dequantize into the slab")
	}
	if got := mallocsPerStep(prefill, 3); got != 0 {
		t.Errorf("forked prefill over packed weights allocates %.1f objects/step at two workers, want 0", got)
	}
}

// oocShaped is bench-ooc's layer shapes (hidden 384, FFN 1536, vocab
// 2048) at two blocks: 5.2M weights in 81k quantization groups, enough
// that per-group or per-element garbage shows up in bytes per token.
func oocShaped() model.Config {
	return model.Config{Name: "ooc-shaped", Hidden: 384, Heads: 6, Blocks: 2, Vocab: 2048, MaxSeq: 64, DTypeBytes: 2}
}

// mmapBytesBudget bounds the heap bytes one decode token may allocate
// over an mmap'd 4-bit checkpoint with the prefetcher's pool workers
// running, where the AllocsPerRun gates (one processor) do not look:
// nothing that grows with the weights. Decoding every group's fp16
// metadata into fresh slices per fetch — 325 kB/token on oocShaped, 813
// kB on bench-ooc — is what this number is here to keep out.
const mmapBytesBudget = 64 << 10

// bytesPerCall is the mean heap bytes allocated by one call of step.
func bytesPerCall(step func()) uint64 {
	const calls = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / calls
}

// File-backed decode over a mapping allocates nothing: a fetch resolves
// its record by a slot found at open, checks the CRC from the header's
// checksum computed at open, and hands out a view (4-bit records) or
// decodes into the loader's recycled buffer (raw ones) — on the plain
// engine and on the prefetched one. Without a mapping the one thing
// left is the payload copy: payloadCopy's one buffer per fetch (every
// oocShaped record is under its 1 MiB first read; a larger one takes one
// more per doubling). That is 37 objects a step; the budget is two per
// fetch because the megabyte of copies a step makes triggers GC cycles
// whose runtime allocations AllocsPerRun counts too (39 under -race). A
// regression that reintroduces per-activation, per-tensor or per-group
// allocation shows here.
func TestStepDecodeAllocsFileZero(t *testing.T) {
	cfg := oocShaped()
	path := writeTestCheckpoint(t, cfg, 13)
	for _, tc := range []struct {
		name     string
		open     func(string) (*FileStore, error)
		prefetch bool
		budget   int
	}{
		{"readat", OpenFileStore, false, 2 * weightCount(cfg)},
		{"mmap", OpenFileStoreMmap, false, 0},
		{"mmap-prefetched", OpenFileStoreMmap, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := tc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			if tc.budget == 0 && !fs.Mapped() {
				t.Skip("no mmap on this platform")
			}
			var se *StepEngine
			if tc.prefetch {
				se, err = NewStepEnginePrefetched(context.Background(), cfg, fs, Retry{})
			} else {
				se, err = NewStepEngine(cfg, fs)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			if allocs := stepDecodeAllocs(t, cfg, se); allocs > float64(tc.budget) {
				t.Errorf("file decode (%s) allocates %.1f objects/step, want at most %d", tc.name, allocs, tc.budget)
			}
		})
	}
}

// The fault injector keeps the decode buffers: a prefetched engine over
// fault.NewStore over a raw-fp16 checkpoint's mapping — helmd's store
// chain under -fault-rate on the checkpoint it synthesizes — decodes
// every matrix into the loader's recycled buffers through the
// injector's TensorInto and allocates nothing per step. Without it each
// matrix fetch came back as a fresh slice from Tensor.
func TestStepDecodeAllocsFaultStoreRawFileZero(t *testing.T) {
	cfg := tinyOPT()
	w, err := RandomWeights(cfg, 13, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStoreMmap(writeCheckpointFile(t, cfg, w, false))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if !fs.Mapped() {
		t.Skip("no mmap on this platform")
	}
	faulty, err := fault.NewStore(fs, fault.Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewStepEnginePrefetched(context.Background(), cfg, faulty, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if allocs := stepDecodeAllocs(t, cfg, se); allocs != 0 {
		t.Errorf("decode behind the fault injector allocates %.1f objects/step, want 0", allocs)
	}
}

// The solo engine over an mmap'd checkpoint is the step engine at one
// sequence: it allocates nothing per token either, and the store still
// sees each tensor exactly once per token.
func TestDecodeAllocsFileZero(t *testing.T) {
	cfg := oocShaped()
	fs, err := OpenFileStoreMmap(writeTestCheckpoint(t, cfg, 13))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if !fs.Mapped() {
		t.Skip("no mmap on this platform")
	}
	e, err := New(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	step := soloDecodeStep(t, e)
	before := fs.Reads()
	_, resBefore := fs.Resident()
	step()
	if got, want := fs.Reads()-before, weightCount(cfg)-residentCount(cfg); got != want {
		t.Errorf("solo decode reads %d tensors/token, want %d", got, want)
	}
	if _, res := fs.Resident(); res-resBefore != residentCount(cfg) {
		t.Errorf("solo decode fetches %d resident tensors/token, want %d", res-resBefore, residentCount(cfg))
	}
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Errorf("solo mmap decode allocates %.1f objects/token, want 0", allocs)
	}
}

// Steady-state decode on the prefetched engine over the mmap'd 4-bit
// checkpoint — the shape of the ooc_latency workload — writes no f32
// copy of a quantized weight anywhere: the loader's bundles carry
// packed views for every quantized tensor and f32 only for the raw norm
// and bias records, the engine's dequantization slab is never touched,
// and the bytes allocated per token stay inside the mmap budget.
func TestPrefetchedDecodeWritesNoF32Weights(t *testing.T) {
	cfg := oocShaped()
	fs, err := OpenFileStoreMmap(writeTestCheckpoint(t, cfg, 13))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if !fs.Mapped() {
		t.Skip("no mmap on this platform")
	}
	se, err := NewStepEnginePrefetched(context.Background(), cfg, fs, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	step := stepDecode(t, cfg, se)
	if got := bytesPerCall(step); got > mmapBytesBudget {
		t.Errorf("prefetched mmap decode allocates %d B/step, budget %d", got, mmapBytesBudget)
	}
	if se.slab != nil {
		t.Errorf("engine dequantized %d weights into its slab during fused-shape decode", len(se.slab))
	}
	se.Settle()
	ld := se.ld
	ld.mu.Lock()
	defer ld.mu.Unlock()
	bundles := []*layerBundle{&ld.cur}
	if ld.next != nil {
		bundles = append(bundles, ld.next.collect())
	}
	for _, b := range bundles {
		if b.err != nil || len(b.data) == 0 {
			t.Fatalf("loader holds no clean bundle: %+v", b)
		}
		for j, w := range b.data {
			name := b.names[j]
			raw := isNormParam(name) || isBiasParam(name)
			if w.packed == raw || (w.f32 != nil) != raw {
				t.Errorf("L%d/%s: packed=%v with %d f32 values (raw record: %v)", b.layer, name, w.packed, len(w.f32), raw)
			}
		}
	}
}

// Prefetching, its buffer recycling and who runs the load lane are pure
// performance mechanisms: with recycling on (a backing that decodes into
// caller buffers) or off (one that only serves Tensor), over read and
// mmap file stores, at one, two and three workers — on a model too small
// to fork, whose fetches all run on the engine at the join, and on one
// whose forks keep a pool worker hot to take them — the generated tokens
// must be byte-identical to the plain (unprefetched) engine's.
func TestPrefetchRecycleIdentity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	defer tensor.SetParallelism(tensor.Parallelism())
	prompt := []int{3, 11, 5}
	const n = 10
	for _, cfg := range []model.Config{tinyLlama(), oocShaped()} {
		path := writeTestCheckpoint(t, cfg, 29)
		fs, err := OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		tensor.SetParallelism(1)
		plain, err := New(cfg, fs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Generate(prompt, n)
		if err != nil {
			t.Fatal(err)
		}

		for _, par := range []int{1, 2, 3} {
			for _, recycle := range []bool{false, true} {
				for _, mapped := range []bool{false, true} {
					name := fmt.Sprintf("%s workers=%d recycle=%v mmap=%v", cfg.Name, par, recycle, mapped)
					tensor.SetParallelism(par)
					open := OpenFileStore
					if mapped {
						open = OpenFileStoreMmap
					}
					st, err := open(path)
					if err != nil {
						t.Fatal(err)
					}
					var backing WeightStore = st
					if !recycle {
						// Embedding the interface hides TensorInto, which is
						// what the loader keys recycling on (and TensorPacked:
						// every tensor arrives decoded).
						backing = struct{ WeightStore }{st}
					}
					e := newPrefetchedSolo(t, cfg, backing, Retry{})
					if (e.ld.into != nil) != recycle {
						t.Fatalf("%s: recycling on = %v", name, e.ld.into != nil)
					}
					got, err := e.generate(context.Background(), prompt, n)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if byWorker, _ := e.LaneStats(); par == 1 && byWorker != 0 {
						t.Errorf("%s: %d tensors fetched by pool workers at one worker", name, byWorker)
					}
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: token %d = %d, want %d", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
