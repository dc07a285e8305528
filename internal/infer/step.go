package infer

import (
	"context"
	"fmt"

	"helmsim/internal/model"
	"helmsim/internal/tensor"
)

// StepSeq is one sequence's contribution to an iteration-level step:
// the tokens it feeds this step (empty = sit the step out), the number
// of positions it already has cached, and its per-block KV storage.
// The storage is owned by the caller — a continuous batcher hands in
// paged views, the fixed lockstep engine hands in its private caches —
// so sequences can join and leave between steps without the engine
// holding any per-sequence state.
type StepSeq struct {
	// Tokens are the positions to feed this step: the uncached prompt
	// suffix at prefill, one sampled token per decode step.
	Tokens []int
	// Pos is the number of positions already cached (the absolute
	// position of Tokens[0]).
	Pos int
	// KV holds one KVBlock per decoder block.
	KV []KVBlock
}

// StepEngine advances an arbitrary set of sequences one iteration at a
// time, in lockstep over layers: every sequence finishes layer L before
// any touches L+1, so each layer's weights are fetched (and dequantized)
// exactly once per step regardless of how many sequences ride it. It is
// the substrate of both the fixed-batch BatchEngine and the continuous
// batcher: the engine holds no sequence state, so the set of sequences
// may change freely between calls.
type StepEngine struct {
	eng      *Engine
	memo     *layerMemo
	prefetch *PrefetchStore // non-nil when built by NewStepEnginePrefetched
	// xs and out are per-step scratch reused across Step calls so the
	// steady-state decode loop performs no per-step slice allocation.
	xs  []tensor.Mat
	out []tensor.Mat
}

// NewStepEngine builds an iteration-level engine over the model and
// weight store.
func NewStepEngine(cfg model.Config, w WeightStore) (*StepEngine, error) {
	memo := newLayerMemo(w)
	eng, err := New(cfg, memo)
	if err != nil {
		return nil, err
	}
	return &StepEngine{eng: eng, memo: memo}, nil
}

// NewStepEnginePrefetched is NewStepEngine with a PrefetchStore between
// the per-layer memo and the backing store (layer L+1 streams in while
// layer L computes) and a foreground retry policy absorbing transient
// background-fetch failures. The prefetch store is private to the
// returned engine, its single consumer. Cancelling ctx aborts the
// prefetcher; Close the engine to stop it.
func NewStepEnginePrefetched(ctx context.Context, cfg model.Config, w WeightStore, r Retry) (*StepEngine, error) {
	ps, err := NewPrefetch(ctx, cfg, w, r)
	if err != nil {
		return nil, err
	}
	se, err := NewStepEngine(cfg, ps)
	if err != nil {
		ps.Close()
		return nil, err
	}
	se.prefetch = ps
	return se, nil
}

// Config reports the model the engine serves.
func (se *StepEngine) Config() model.Config { return se.eng.cfg }

// WeightFetches reports backing-store tensor fetches so far.
func (se *StepEngine) WeightFetches() int { return int(se.memo.fetches.Load()) }

// PrefetchStats reports (hits, misses) of the prefetcher, or zeros for
// a plain NewStepEngine.
func (se *StepEngine) PrefetchStats() (hits, misses int) {
	if se.prefetch == nil {
		return 0, 0
	}
	return se.prefetch.Stats()
}

// DegradedFetches reports background prefetches absorbed by foreground
// retries (zero for a plain NewStepEngine).
func (se *StepEngine) DegradedFetches() int {
	if se.prefetch == nil {
		return 0
	}
	return se.prefetch.DegradedFetches()
}

// Settle joins any in-flight background prefetch without consuming or
// cancelling it (no-op for a plain NewStepEngine).
func (se *StepEngine) Settle() {
	if se.prefetch != nil {
		se.prefetch.Settle()
	}
}

// Close stops the background prefetcher, if any.
func (se *StepEngine) Close() error {
	if se.prefetch == nil {
		return nil
	}
	return se.prefetch.Close()
}

// Step advances every sequence with non-empty Tokens by one iteration
// and returns the last-position logits per advanced sequence (zero Mat
// for skipped ones). Position bookkeeping stays with the caller: on
// success each advanced sequence has len(Tokens) new positions cached
// and the caller advances Pos; on error the step is atomic — every
// sequence's KV is truncated back to its Pos, so a retried or
// rescheduled step cannot double-append and no two blocks ever disagree
// on cache length.
func (se *StepEngine) Step(seqs []*StepSeq) ([]tensor.Mat, error) {
	cfg := se.eng.cfg
	se.eng.reclaim()
	if cap(se.xs) < len(seqs) {
		se.xs = make([]tensor.Mat, len(seqs))
	}
	xs := se.xs[:len(seqs)]
	clear(xs)
	active := 0
	// Validate and embed every active sequence first (layer 0 weights
	// fetched once). Nothing is appended to any KV cache yet, so errors
	// here need no rollback.
	for i, s := range seqs {
		if s == nil || len(s.Tokens) == 0 {
			continue
		}
		if len(s.KV) != cfg.Blocks {
			return nil, fmt.Errorf("infer: sequence %d has %d KV blocks, want %d", i, len(s.KV), cfg.Blocks)
		}
		if s.Pos < 0 {
			return nil, fmt.Errorf("infer: sequence %d has negative position %d", i, s.Pos)
		}
		if s.Pos+len(s.Tokens) > cfg.MaxSeq {
			return nil, fmt.Errorf("infer: sequence %d context overflow (%d + %d > %d)", i, s.Pos, len(s.Tokens), cfg.MaxSeq)
		}
		x, err := se.eng.embed(s.Tokens, s.Pos)
		if err != nil {
			return nil, err
		}
		xs[i] = x
		active++
	}
	if active == 0 {
		return nil, fmt.Errorf("infer: empty step")
	}

	rollback := func() {
		for i, s := range seqs {
			if s == nil || xs[i].R == 0 {
				continue
			}
			for _, kb := range s.KV {
				kb.Truncate(s.Pos)
			}
		}
	}

	// Lockstep over layers: every sequence finishes layer L before any
	// touches L+1, keeping the one-layer weight memo hot.
	for blk := 0; blk < cfg.Blocks; blk++ {
		mha := se.eng.layers[1+2*blk]
		for i, s := range seqs {
			if xs[i].R == 0 {
				continue
			}
			x, err := se.eng.attentionBlock(mha, s.KV[blk], s.Pos, xs[i])
			if err != nil {
				rollback()
				return nil, err
			}
			se.eng.ar.Put(xs[i])
			xs[i] = x
		}
		ffn := se.eng.layers[2+2*blk]
		for i := range seqs {
			if xs[i].R == 0 {
				continue
			}
			x, err := se.eng.ffnBlock(ffn, xs[i])
			if err != nil {
				rollback()
				return nil, err
			}
			se.eng.ar.Put(xs[i])
			xs[i] = x
		}
	}

	if cap(se.out) < len(seqs) {
		se.out = make([]tensor.Mat, len(seqs))
	}
	out := se.out[:len(seqs)]
	clear(out)
	for i := range seqs {
		if xs[i].R == 0 {
			continue
		}
		logits, err := se.eng.output(xs[i])
		if err != nil {
			rollback()
			return nil, err
		}
		se.eng.ar.Put(xs[i])
		xs[i] = logits // keep non-zero: later sequences still gate on xs[i].R
		out[i] = logits
	}
	return out, nil
}

// NewBlockCaches builds one private append-only KVBlock per decoder
// block — the storage a solo sequence uses when no paged pool backs it.
// The blocks pre-size their row slabs to the model's MaxSeq, so
// steady-state appends allocate nothing.
func NewBlockCaches(cfg model.Config) []KVBlock {
	kv := make([]KVBlock, cfg.Blocks)
	for i := range kv {
		kv[i] = &blockCache{maxRows: cfg.MaxSeq}
	}
	return kv
}
