package infer

import (
	"context"
	"fmt"
	"sync/atomic"

	"helmsim/internal/model"
	"helmsim/internal/tensor"
)

// layerMemo caches the tensors of one layer at a time in front of a
// backing store. A step visits each layer once for every sequence
// together, so the memo is what makes a weight cross the store boundary
// once per layer per step however the engine asks for it — the executable
// counterpart of the zig-zag schedule's weight reuse (§II-B). It is the
// engine's one view of the store: the optional fetch paths of the backing
// store are resolved here, once, in order of preference.
type layerMemo struct {
	// storePaths are the backing store's fetch paths. packed: 4-bit
	// tensors arrive as validated views of their stored bytes and are
	// never decoded here; the memo holds a view only while its layer is
	// current, inside the lifetime DESIGN §3h gives packed views (the
	// index stays open for the life of the engine). into: evicted layers'
	// buffers are kept (keyed by tensor name) and the next layer decodes
	// into them, so the memo stops allocating once it has seen one full
	// layer cycle. The memo is single-consumer (one lockstep engine),
	// which is what makes reuse safe: a recycled buffer is only
	// overwritten after its layer was evicted, i.e. after the engine
	// moved past it. A PrefetchStore backing never implements IntoStore —
	// it owns (and recycles) its bundle buffers itself. views, used only
	// when there is no decode-into path: a resident MemStore serves its
	// own storage (read-only, like every weight the engine sees) instead
	// of a copy per fetch.
	storePaths
	layer int
	cache map[string]weight
	free  map[string][]float32
	// fetches counts backing-store accesses (observable reuse); atomic so
	// counter reads stay well-defined while a prefetching backing store
	// runs in the background.
	fetches atomic.Int64
}

// newLayerMemo wraps a store.
func newLayerMemo(backing WeightStore) *layerMemo {
	m := &layerMemo{storePaths: storePaths{backing: backing}, layer: -1, cache: map[string]weight{}}
	m.packed, _ = backing.(PackedStore)
	if is, ok := backing.(IntoStore); ok {
		m.into = is
		m.free = map[string][]float32{}
	} else {
		m.views, _ = backing.(ViewStore)
	}
	return m
}

// fetch returns the named tensor of the layer, from the backing store on
// the first request of a layer visit and from the memo after. A request
// for a new layer evicts the previous layer's tensors (the map is cleared
// and reused, not reallocated — the memo changes layer once per layer per
// step); evicted f32 buffers become the new layer's decode targets when
// the backing store decodes into buffers.
func (m *layerMemo) fetch(layer int, name string) (weight, error) {
	if layer != m.layer {
		m.layer = layer
		if m.into != nil {
			for n, w := range m.cache {
				if w.f32 != nil {
					m.free[n] = w.f32
				}
			}
		}
		clear(m.cache)
	}
	if w, ok := m.cache[name]; ok {
		return w, nil
	}
	w, err := m.storePaths.fetch(layer, name, m.free[name])
	if err != nil {
		return weight{}, err
	}
	m.fetches.Add(1)
	m.cache[name] = w
	return w, nil
}

// seqState is one sequence's decoding state.
type seqState struct {
	kv  []KVBlock
	pos int
}

// BatchEngine decodes a fixed set of sequences together: each step is one
// StepEngine pass over the layers with every sequence's rows stacked, so
// each layer's weights are fetched and consumed exactly once per step
// regardless of the batch size. It is the fixed-membership wrapper over
// StepEngine: the sequence set is chosen at construction and a slot is
// held for a request's whole lifetime (the continuous batcher in
// internal/batch lifts that restriction).
type BatchEngine struct {
	se   *StepEngine
	seqs []seqState
	// step scratch reused across Step calls (steady-state decode makes
	// no per-step slice allocations).
	stepSeqs []StepSeq
	stepPtrs []*StepSeq
}

// NewBatch builds a lockstep engine for nSeqs sequences.
func NewBatch(cfg model.Config, w WeightStore, nSeqs int) (*BatchEngine, error) {
	se, err := NewStepEngine(cfg, w)
	if err != nil {
		return nil, err
	}
	return newBatch(se, nSeqs)
}

// NewBatchPrefetched is NewBatch over NewStepEnginePrefetched: while
// Step computes layer L, layer L+1 is fetched in the background —
// Listing 1's overlap, executable — and a transiently failed background
// fetch degrades to a foreground fetch retried under r instead of
// failing the whole wave. Cancelling ctx aborts the
// prefetcher; Close the engine to stop it.
func NewBatchPrefetched(ctx context.Context, cfg model.Config, w WeightStore, nSeqs int, r Retry) (*BatchEngine, error) {
	se, err := NewStepEnginePrefetched(ctx, cfg, w, r)
	if err != nil {
		return nil, err
	}
	return newBatch(se, nSeqs)
}

// newBatch gives nSeqs private KV caches to a step engine, which it
// closes when the count is unusable.
func newBatch(se *StepEngine, nSeqs int) (*BatchEngine, error) {
	if nSeqs <= 0 {
		se.Close()
		return nil, fmt.Errorf("infer: non-positive sequence count %d", nSeqs)
	}
	b := &BatchEngine{se: se, seqs: make([]seqState, nSeqs)}
	for i := range b.seqs {
		b.seqs[i].kv = NewBlockCaches(se.cfg)
	}
	return b, nil
}

// PrefetchStats reports (hits, misses) of the prefetcher, or zeros for a
// plain NewBatch engine.
func (b *BatchEngine) PrefetchStats() (hits, misses int) { return b.se.PrefetchStats() }

// DegradedFetches reports how many background prefetches failed and
// were absorbed by foreground retries (zero for a plain NewBatch
// engine).
func (b *BatchEngine) DegradedFetches() int { return b.se.DegradedFetches() }

// LaneStats reports the prefetched tensors fetched by pool workers and
// by the engine itself (zeros for a plain NewBatch engine).
func (b *BatchEngine) LaneStats() (byWorker, byConsumer int) { return b.se.LaneStats() }

// Close stops the background prefetcher, if any. The engine stays usable
// for weight stores that need no teardown.
func (b *BatchEngine) Close() error { return b.se.Close() }

// WeightFetches reports backing-store tensor fetches so far.
func (b *BatchEngine) WeightFetches() int { return b.se.WeightFetches() }

// Len reports the sequence count.
func (b *BatchEngine) Len() int { return len(b.seqs) }

// Step feeds each sequence its next tokens (tokens[i] may hold one or more
// tokens for sequence i; nil slices skip a sequence) and returns the final
// logits per advanced sequence (nil for skipped ones). The step is atomic:
// on error no sequence's position advances and every KV cache is rolled
// back to its pre-step length, so a retried step cannot double-append.
func (b *BatchEngine) Step(tokens [][]int) ([]tensor.Mat, error) {
	if len(tokens) != len(b.seqs) {
		return nil, fmt.Errorf("infer: step has %d token slices for %d sequences", len(tokens), len(b.seqs))
	}
	if cap(b.stepSeqs) < len(b.seqs) {
		b.stepSeqs = make([]StepSeq, len(b.seqs))
		b.stepPtrs = make([]*StepSeq, len(b.seqs))
	}
	step := b.stepPtrs[:len(b.seqs)]
	for i := range b.seqs {
		b.stepSeqs[i] = StepSeq{Tokens: tokens[i], Pos: b.seqs[i].pos, KV: b.seqs[i].kv}
		step[i] = &b.stepSeqs[i]
	}
	out, err := b.se.Step(step)
	if err != nil {
		return nil, err
	}
	for i := range b.seqs {
		b.seqs[i].pos += len(tokens[i])
	}
	return out, nil
}

// GenerateBatch runs greedy decoding for every prompt in lockstep and
// returns n tokens per sequence.
func (b *BatchEngine) GenerateBatch(prompts [][]int, n int) ([][]int, error) {
	//lint:helmvet-ignore ctxflow compatibility shim: the no-ctx API deliberately anchors an undeadlined generation
	return b.GenerateBatchContext(context.Background(), prompts, n)
}

// GenerateBatchContext is GenerateBatch under a per-generation context:
// the deadline or cancellation is checked between lockstep steps, so a
// stalled storage tier cannot hang the wave indefinitely.
func (b *BatchEngine) GenerateBatchContext(ctx context.Context, prompts [][]int, n int) ([][]int, error) {
	if ctx == nil {
		//lint:helmvet-ignore ctxflow nil-ctx guard: callers passing nil get the documented undeadlined behavior
		ctx = context.Background()
	}
	if len(prompts) != len(b.seqs) {
		return nil, fmt.Errorf("infer: %d prompts for %d sequences", len(prompts), len(b.seqs))
	}
	if n <= 0 {
		return nil, fmt.Errorf("infer: non-positive generation length %d", n)
	}
	step := make([][]int, len(prompts))
	for i, p := range prompts {
		if len(p) == 0 {
			return nil, fmt.Errorf("infer: empty prompt %d", i)
		}
		step[i] = p
	}
	// One single-token backing array per sequence, reused every decode
	// step so the loop performs no per-token slice allocation.
	toks := make([][1]int, len(prompts))
	out := make([][]int, len(prompts))
	for t := 0; t < n; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("infer: batch generation aborted after %d/%d steps: %w", t, n, err)
		}
		logits, err := b.Step(step)
		if err != nil {
			return nil, err
		}
		for i := range step {
			next := logits[i].ArgmaxRow(0)
			out[i] = append(out[i], next)
			toks[i][0] = next
			step[i] = toks[i][:]
		}
	}
	return out, nil
}
