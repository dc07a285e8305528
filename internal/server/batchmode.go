package server

import (
	"fmt"

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

// batchState is one generation's batcher: the shared step engine
// pinned to the checkpoint generation it was built on, its paged pool,
// and the folded prefetch counter baselines (engine counters are
// lifetime values; the server wants deltas).
type batchState struct {
	b       *batch.Batcher
	se      *infer.StepEngine
	gen     int64
	release func()

	hits, misses, degrade int
}

// newBatchState pins the current checkpoint generation and builds a
// batcher over it. The caller owns the returned state and must
// stopBatchState it.
func (s *Server) newBatchState() (*batchState, error) {
	pinned, gen, release, err := s.store.Acquire()
	if err != nil {
		return nil, err
	}
	bc := s.cfg.Batch.withDefaults()
	se, err := infer.NewStepEnginePrefetched(s.genCtx, s.cfg.Model, breakerStore{s, pinned}, s.cfg.Retry)
	if err != nil {
		release()
		return nil, err
	}
	pool, err := kvcache.NewPool(s.cfg.Model, bc.KVPages, bc.PageTokens, !bc.DisablePrefixReuse)
	if err != nil {
		se.Close()
		release()
		return nil, err
	}
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
		se:      se,
		gen:     gen,
		release: release,
	}, nil
}

// stopBatchState quiesces a batcher: finish its queued and running
// requests, fold its final prefetch counters, close its engine, release
// its generation pin.
func (s *Server) stopBatchState(bs *batchState) {
	bs.b.Stop()
	s.foldBatchPrefetch(bs)
	bs.se.Close()
	bs.release()
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

// rebuildBatcher installs a fresh batcher on the current generation and
// retires the old one in the background: its queued and in-flight
// submissions finish on the generation they started on while new
// arrivals land on the new one, and the caller — a SIGHUP handler — is
// not held up by the longest generation in flight. Caller holds
// reloadMu.
func (s *Server) rebuildBatcher() error {
	nbs, err := s.newBatchState()
	if err != nil {
		return fmt.Errorf("server: rebuilding batcher: %w", err)
	}
	s.batchMu.Lock()
	old := s.bat
	if old == nil {
		// Drain already tore the serving core down.
		s.batchMu.Unlock()
		s.stopBatchState(nbs)
		return fmt.Errorf("server: rebuilding batcher: daemon stopped")
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
	_ = s.rebuildBatcher()
}
