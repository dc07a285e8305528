package server

import (
	"fmt"
	"io"

	"helmsim/internal/batch"
	"helmsim/internal/infer"
	"helmsim/internal/kvcache"
)

// BatchConfig sizes the serving core: all workers feed one shared
// iteration-level batcher (internal/batch) over a paged KV cache
// (kvcache.Pool). Each decode step fetches every layer's weights once
// for the whole running batch; requests join and leave at step
// granularity, so short generations stop paying for long ones, and
// common prompt prefixes share KV pages. A solo request is a batch of
// one.
type BatchConfig struct {
	// Enabled is read by nothing: the batcher is the only serving path.
	// The field stays because bench/stack.go sets it and bench/ is frozen.
	Enabled bool
	// MaxSeqs caps concurrently decoding sequences (default 8).
	MaxSeqs int
	// KVPages is the paged KV pool size in pages (default 512).
	KVPages int
	// PageTokens is the page granularity (default 16, vLLM's).
	PageTokens int
	// DisablePrefixReuse turns off the shared-prefix page cache (on by
	// default: zero value enables it).
	DisablePrefixReuse bool
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxSeqs == 0 {
		c.MaxSeqs = 8
	}
	if c.KVPages == 0 {
		c.KVPages = 512
	}
	if c.PageTokens == 0 {
		c.PageTokens = 16
	}
	return c
}

// Validate rejects unusable batch configurations (after defaulting).
func (c BatchConfig) Validate() error {
	c = c.withDefaults()
	if c.MaxSeqs < 1 {
		return fmt.Errorf("server: batch sequence cap %d < 1", c.MaxSeqs)
	}
	if c.KVPages < 1 {
		return fmt.Errorf("server: KV page budget %d < 1", c.KVPages)
	}
	if c.PageTokens < 1 {
		return fmt.Errorf("server: KV page size %d < 1", c.PageTokens)
	}
	return nil
}

// pagesForContext is the page count a full context pins, the admission
// predicate for the shed_page_pressure bucket.
func (c BatchConfig) pagesForContext(tokens int) int {
	c = c.withDefaults()
	return (tokens + c.PageTokens - 1) / c.PageTokens
}

// generation is one opened checkpoint store and the batchers built on
// it. A batcher holds a reference from newBatchState to stopBatchState;
// the last one to stop closes the store, after its engine joined every
// fetch it posted, so no packed view outlives its mapping (DESIGN §3h).
// Two batchers share a generation only after a panicked-step rebuild.
type generation struct {
	num    int64 // 1 for the store New opened, one more per Reload; 0 until installed
	store  infer.WeightStore
	closer io.Closer // nil when the opener keeps the store's lifetime
	refs   int       // batchers built on it (guarded by batchMu)
	// closeErr is the closer's error, written by the batcher that ran
	// it; Drain reads the final generation's once every batcher stopped.
	closeErr error
}

// batchState is one batcher: the shared step engine built on one
// checkpoint generation, its paged pool, and the folded prefetch
// counter baselines (engine counters are lifetime values; the server
// wants deltas).
type batchState struct {
	b  *batch.Batcher
	se *infer.StepEngine
	g  *generation

	hits, misses, degrade int
}

// newBatchState builds a batcher over g and takes a reference on g for
// it. The caller owns the returned state and must stopBatchState it.
func (s *Server) newBatchState(g *generation) (*batchState, error) {
	bc := s.cfg.Batch.withDefaults()
	se, err := infer.NewStepEnginePrefetched(s.genCtx, s.cfg.Model, breakerStore{s, g.store}, s.cfg.Retry)
	if err != nil {
		return nil, err
	}
	pool, err := kvcache.NewPool(s.cfg.Model, bc.KVPages, bc.PageTokens, !bc.DisablePrefixReuse)
	if err != nil {
		se.Close()
		return nil, err
	}
	s.batchMu.Lock()
	g.refs++
	s.batchMu.Unlock()
	return &batchState{
		b: batch.New(se, pool, batch.Options{
			MaxSeqs: bc.MaxSeqs,
			// The server's own queue bound plus one slot per worker: the
			// batcher's queue must never be the binding constraint, or a
			// request the server admitted would bounce with ErrBusy.
			MaxQueue: s.cfg.MaxQueue + s.cfg.Workers,
			// Share the admission predictor so the batcher's page gate
			// prices requests the same way admission did.
			Predictor: s.pred,
		}),
		se: se,
		g:  g,
	}, nil
}

// stopBatchState quiesces a batcher: finish its queued and running
// requests, fold its final prefetch counters, close its engine (which
// joins its posted fetch), then drop its reference on its generation.
// The last batcher on an installed generation retires it and closes
// its store.
func (s *Server) stopBatchState(bs *batchState) {
	bs.b.Stop()
	s.foldBatchPrefetch(bs)
	bs.se.Close()
	g := bs.g
	s.batchMu.Lock()
	g.refs--
	last := g.refs == 0
	if last && g.num > 0 {
		s.retired++
	}
	s.batchMu.Unlock()
	if last && g.closer != nil {
		g.closeErr = g.closer.Close()
	}
}

// foldBatchPrefetch folds the engine's prefetch counter deltas into the
// server totals. Called under batchMu (or on a replaced batcher, which
// only its retiring goroutine still touches).
func (s *Server) foldBatchPrefetch(bs *batchState) {
	h, m := bs.se.PrefetchStats()
	d := bs.se.DegradedFetches()
	s.prefetchHits.Add(int64(h - bs.hits))
	s.prefetchMisses.Add(int64(m - bs.misses))
	s.degraded.Add(int64(d - bs.degrade))
	bs.hits, bs.misses, bs.degrade = h, m, d
}

// currentBatch snapshots the active batcher.
func (s *Server) currentBatch() *batchState {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	return s.bat
}

// install makes nbs the serving batcher and retires the old one in the
// background: its queued and in-flight submissions finish on the
// generation they started on while new arrivals land on nbs, and the
// caller — a SIGHUP handler — is not held up by the longest generation
// in flight. A generation new to the server gets the next number.
// After Drain there is nothing to replace: nbs is stopped instead.
// Caller holds reloadMu.
func (s *Server) install(nbs *batchState) error {
	s.batchMu.Lock()
	old := s.bat
	if old == nil {
		s.batchMu.Unlock()
		s.stopBatchState(nbs)
		return fmt.Errorf("server: daemon stopped")
	}
	if nbs.g != old.g {
		s.gens++
		nbs.g.num = s.gens
	}
	s.bat = nbs
	s.retiring.Add(1)
	s.batchMu.Unlock()
	go func() {
		defer s.retiring.Done()
		s.stopBatchState(old)
	}()
	return nil
}

// replacePanicked follows a panicked decode step: the first of the
// step's requests to get here counts the panic and installs a fresh
// batcher — the engine's arena and weight loader were abandoned mid-step —
// and its siblings find the batcher already replaced.
func (s *Server) replacePanicked(bs *batchState) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.currentBatch() != bs {
		return
	}
	s.panics.Add(1)
	// On failure the old batcher keeps serving: it survived the panic,
	// only its scratch is suspect.
	if nbs, err := s.newBatchState(bs.g); err == nil {
		_ = s.install(nbs)
	}
}
