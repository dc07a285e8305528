package infer

import (
	"fmt"
	"io"
	"sync"

	"helmsim/internal/checkpoint"
)

// SwappableStore holds a weight store whose generation can be replaced
// atomically while readers are in flight — the hot-checkpoint-reload
// primitive of the serving daemon. It is read only through Acquire,
// which pins one generation for a whole multi-fetch reader (an engine
// and its prefetches); Swap installs the new generation immediately for
// later Acquires and retires the old one, whose closer runs only after
// its last pin is released. A reload therefore never yanks the file out
// from under a running fetch, and never blocks the serving path waiting
// for stragglers.
type SwappableStore struct {
	mu sync.Mutex
	// cur is the generation Acquire pins. nil only after Close.
	cur *storeGen
	// gen counts installed generations (1 for the initial store).
	gen int64
	// retired counts generations whose closer has run.
	retired int64
	closed  bool
	// deferredCloseErr records the most recent error from a closer that
	// ran after its generation was retired (there is no caller left on
	// that path to return it to).
	deferredCloseErr error
}

// storeGen is one pinned-countable backing-store generation.
type storeGen struct {
	store   WeightStore
	closer  io.Closer // nil when the caller owns the store's lifetime
	refs    int       // Acquire pins on this generation
	retired bool      // swapped out (or store closed); close when refs hit 0
}

// NewSwappable wraps an initial backing store. closer, when non-nil, is
// run once the generation is swapped out (or the store closed) and its
// last pin has been released.
func NewSwappable(w WeightStore, closer io.Closer) (*SwappableStore, error) {
	if w == nil {
		return nil, fmt.Errorf("infer: nil weight store")
	}
	return &SwappableStore{cur: &storeGen{store: w, closer: closer}, gen: 1}, nil
}

// Acquire pins the current generation and returns its store itself —
// every optional fetch path included — for as long as the pin is held,
// so a sequence of fetches — an engine's foreground reads, retries and
// background prefetches, and the packed views it holds — can never
// straddle a Swap. gen identifies the pinned generation; release
// (idempotent) drops the pin, and a retired generation's closer runs
// once every pin on it is gone. This is what makes "in-flight requests
// finish on the generation they started on" true for requests that
// fetch more than once.
func (s *SwappableStore) Acquire() (w WeightStore, gen int64, release func(), err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, nil, fmt.Errorf("infer: acquire on closed store: %w", checkpoint.ErrClosed)
	}
	g := s.cur
	g.refs++
	gen = s.gen
	s.mu.Unlock()
	var once sync.Once
	return g.store, gen, func() { once.Do(func() { s.unpin(g) }) }, nil
}

// unpin releases one pin and runs the generation's closer if it was the
// last pin on a retired generation.
func (s *SwappableStore) unpin(g *storeGen) {
	s.mu.Lock()
	g.refs--
	c := s.takeCloserLocked(g)
	s.mu.Unlock()
	if c == nil {
		return
	}
	err := c.Close()
	s.mu.Lock()
	if err != nil {
		s.deferredCloseErr = err
	}
	s.mu.Unlock()
}

// takeCloserLocked claims a retired, drained generation's closer (at
// most once) and counts the retirement. Caller holds mu.
func (s *SwappableStore) takeCloserLocked(g *storeGen) io.Closer {
	if !g.retired || g.refs != 0 {
		return nil
	}
	s.retired++
	c := g.closer
	g.closer = nil
	return c
}

// Swap atomically installs a new backing store: Acquires that start after
// Swap returns pin the new generation, pins already in flight finish
// on the old one, and the old generation's closer runs after its last
// pin. installed reports whether the new generation took: when false
// (nil store, or Swap after Close) the caller keeps ownership of w and
// closer, and err explains the rejection. When installed, a non-nil err
// is the old generation's synchronous close failure — the swap itself
// succeeded; a close deferred past in-flight pins reports its error via
// DeferredCloseErr instead.
func (s *SwappableStore) Swap(w WeightStore, closer io.Closer) (installed bool, err error) {
	if w == nil {
		return false, fmt.Errorf("infer: swap to nil weight store")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, fmt.Errorf("infer: swap on closed store: %w", checkpoint.ErrClosed)
	}
	old := s.cur
	old.retired = true
	s.cur = &storeGen{store: w, closer: closer}
	s.gen++
	c := s.takeCloserLocked(old)
	s.mu.Unlock()
	if c != nil {
		return true, c.Close()
	}
	return true, nil
}

// Generation reports how many generations have been installed (1 until
// the first Swap). Engines compare it between requests to rebuild their
// prefetch chain after a hot reload.
func (s *SwappableStore) Generation() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// RetiredGenerations reports how many swapped-out generations have had
// their closer run — the observable proof that reloads do not leak file
// handles.
func (s *SwappableStore) RetiredGenerations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retired
}

// DeferredCloseErr reports the most recent error from a generation
// closer that ran off the swap path (after its last pin), or nil.
func (s *SwappableStore) DeferredCloseErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deferredCloseErr
}

// Close retires the current generation and fails subsequent Acquire and
// Swap calls with checkpoint.ErrClosed. Like Swap, the closer runs
// synchronously only when no pin is held. Close is idempotent.
func (s *SwappableStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	cur := s.cur
	cur.retired = true
	c := s.takeCloserLocked(cur)
	s.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
