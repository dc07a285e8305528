package infer

import (
	"context"
	"fmt"
	"sync"

	"helmsim/internal/fault"
	"helmsim/internal/model"
	"helmsim/internal/quant"
)

// prefetchDepth is how many layers ahead the store keeps in flight: the
// next layer only. The pending FIFO is written for any small depth;
// nothing has yet shown a deeper pipeline paying for its resident layer.
const prefetchDepth = 1

// PrefetchStore overlaps the next layers' weight fetch with the current
// layer's compute: the executable counterpart of Listing 1's
// load_weight(i, j+1) ∥ compute(i, j). Over a backing store that hands
// out packed views (PackedStore) the background work is a transfer, as
// in the paper — page-in or read, CRC, metadata validation — and 4-bit
// tensors stay packed until a kernel consumes them; only tensors with
// no packed form (raw records, or any tensor of a store that can only
// decode) are decoded here, in the background. The first request for
// a tensor of layer L hands back the prefetched bundle (or fetches it
// synchronously on a miss) and immediately tops the pipeline back up to
// its depth; because the schedule cycles input-embed → blocks →
// output-embed → input-embed (the zig-zag's per-step wrap), the output
// layer's prefetch warms the next step's embedding.
//
// Bounded by construction: at most prefetchDepth layers are in flight,
// so peak residency stays at prefetchDepth+1 layers (current +
// in-flight). Errors from a background fetch — a panic in the backing
// store included — surface on the first request for that layer, and
// cancelling the construction context (or calling Close) stops the
// prefetcher and fails subsequent fetches cleanly.
//
// The store degrades gracefully under storage faults: a failed
// *background* fetch does not poison the generation — the consuming
// call retries the layer in the foreground (with the store's bounded
// Retry policy when one is configured) and the DegradedFetches counter
// records the event. Only when the foreground retry also fails does the
// error surface to the engine.
//
// The store has exactly ONE lockstep consumer, walking layers in
// schedule order. When the backing store decodes into caller buffers
// (IntoStore), each layer decodes into the slabs of the layer the
// consumer just left: two slab sets ping-pong between "being computed
// on" and "being decoded into". A second reader at another layer would
// see torn weights, so every engine builds its own store.
type PrefetchStore struct {
	// storePaths are the backing store's fetch paths: packed is set when
	// it hands out packed views, into when it decodes into buffers
	// (recycling is then on); views stays unset — the bundles of a store
	// that only serves Tensor hold its copies.
	storePaths
	next  map[int]int      // layer index -> successor in the schedule cycle
	names map[int][]string // layer index -> tensor names, spec order
	retry Retry            // foreground re-attempt policy (zero: none)

	ctx    context.Context
	cancel context.CancelFunc

	mu           sync.Mutex
	cur          *layerBundle
	pending      []*fetchTicket // FIFO of in-flight fetches, schedule order
	free         map[string][][]float32
	freeMaps     []map[string]weight
	hits, misses int
	degraded     int // background fetches that failed and were retried in the foreground
}

// layerBundle is one layer's tensors, fully fetched (or the error that
// interrupted the fetch): packed views for the tensors the backing store
// serves packed, f32 slabs for the rest. It is one of the two holders of
// packed views (DESIGN §3h).
type layerBundle struct {
	layer int
	data  map[string]weight
	err   error
}

// fetchTicket tracks one in-flight background fetch.
type fetchTicket struct {
	layer  int
	done   chan struct{}
	bundle *layerBundle // set before done closes
}

// NewPrefetch wraps a weight store with next-layer prefetch for the
// given model. Cancelling ctx aborts any in-flight fetch and fails later
// ones; transiently failed fetches — background ones consumed by the
// engine, and foreground misses — are re-attempted up to r's bound with
// its deterministic backoff (the zero Retry: none). Callers should Close
// the store to stop the background fetcher.
func NewPrefetch(ctx context.Context, cfg model.Config, backing WeightStore, r Retry) (*PrefetchStore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if backing == nil {
		return nil, fmt.Errorf("infer: nil weight store")
	}
	layers := cfg.Layers()
	s := &PrefetchStore{
		storePaths: storePaths{backing: backing},
		next:       make(map[int]int, len(layers)),
		names:      make(map[int][]string, len(layers)),
		retry:      r,
	}
	// Recycling needs a decode-into path; a backing store without one
	// (e.g. a plain MemStore) keeps the allocate-per-fetch behavior,
	// which is already cheap there.
	if is, ok := backing.(IntoStore); ok {
		s.into = is
		s.free = make(map[string][][]float32)
	}
	s.packed, _ = backing.(PackedStore)
	for i, l := range layers {
		s.next[l.Index] = layers[(i+1)%len(layers)].Index
		names := make([]string, len(l.Weights))
		for j, w := range l.Weights {
			names[j] = w.Name
		}
		s.names[l.Index] = names
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	return s, nil
}

// Tensor implements WeightStore. Requests for names outside the model's
// layer specs pass through to the backing store so its error surfaces
// unchanged. A tensor the bundle holds packed is dequantized into a
// fresh slice: engines ask TensorPacked first and never get here for
// one.
func (s *PrefetchStore) Tensor(layer int, name string) ([]float32, error) {
	b, err := s.bundle(layer)
	if err != nil {
		return nil, err
	}
	w, ok := b.data[name]
	switch {
	case !ok:
		return s.backing.Tensor(layer, name)
	case w.packed:
		return w.q.DequantizeInto(nil), nil
	}
	return w.f32, nil
}

// TensorPacked implements PackedStore from the same bundles: the view
// the background fetch validated, when the backing store served the
// tensor packed.
func (s *PrefetchStore) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	if s.packed == nil {
		return quant.Packed{}, false, nil
	}
	b, err := s.bundle(layer)
	if err != nil {
		return quant.Packed{}, false, err
	}
	w := b.data[name]
	return w.q, w.packed, nil
}

// bundle returns the requested layer's tensors, consuming the matching
// in-flight prefetch when there is one, fetching in the foreground when
// there is not, and topping the pipeline back up to its depth either
// way.
func (s *PrefetchStore) bundle(layer int) (*layerBundle, error) {
	s.mu.Lock()
	// An errored bundle is never served from cur: the failure belonged to
	// the call that fetched it. Replaying it would fail every later step
	// after one storage blip, without a single read.
	if b := s.cur; b != nil && b.layer == layer && b.err == nil {
		s.mu.Unlock()
		return b, nil
	}
	idx := -1
	for i, t := range s.pending {
		if t.layer == layer {
			idx = i
			break
		}
	}
	if idx >= 0 {
		// Tickets ahead of the match were skipped by the consumer (an
		// off-schedule jump); they are drained and recycled without ever
		// being exposed. In lockstep order idx is 0 and heads is empty.
		var heads []*fetchTicket
		if idx > 0 {
			heads = append(heads, s.pending[:idx]...)
		}
		t := s.pending[idx]
		n := copy(s.pending, s.pending[idx+1:])
		s.pending = s.pending[:n]
		s.mu.Unlock()
		for _, h := range heads {
			<-h.done
		}
		<-t.done
		s.mu.Lock()
		for _, h := range heads {
			s.recycleBundleLocked(h.bundle)
		}
		b := t.bundle
		if b.err != nil && s.ctx.Err() == nil {
			// Graceful degradation: the background fetch failed, but the
			// generation is not poisoned — re-fetch the layer in the
			// foreground (with retries, when configured) and only
			// surface an error if that fails too. Whatever the failed
			// fetch produced is recycled first.
			s.recycleBundleLocked(b)
			dsts := s.takeSlabsLocked(layer)
			s.degraded++
			s.mu.Unlock()
			b = s.fetchLayerRetry(layer, dsts)
			s.mu.Lock()
			s.installLocked(b)
			s.mu.Unlock()
			return b, b.err
		}
		s.hits++
		s.installLocked(b)
		s.mu.Unlock()
		return b, b.err
	}

	// Foreground path: the prefetcher did not have this layer (first
	// access, or the first after a failed fetch stopped the pipeline).
	dsts := s.takeSlabsLocked(layer)
	s.mu.Unlock()
	b := s.fetchLayerRetry(layer, dsts)
	s.mu.Lock()
	s.misses++
	s.installLocked(b)
	s.mu.Unlock()
	return b, b.err
}

// fetchLayerRetry is fetchLayer under the store's foreground retry
// policy: transient failures are re-attempted with deterministic
// backoff; permanent ones (corruption, closed checkpoint, cancellation)
// surface immediately. Retrying happens per tensor (a failed tensor is
// re-read alone, not the whole layer) — a layer-granular retry
// compounds the per-tensor fault rate across every tensor of the layer
// on each attempt, which can exhaust even a deep retry budget under a
// modest injected fault rate. The outer layer-level loop remains as a
// second line of defense. Re-attempts reuse the failed bundle's buffers
// (every IntoStore fully overwrites a buffer before success).
func (s *PrefetchStore) fetchLayerRetry(layer int, dsts map[string]weight) *layerBundle {
	b := s.fetchLayer(layer, true, dsts)
	for attempt := 1; b.err != nil && attempt <= s.retry.Max; attempt++ {
		if !fault.IsTransient(b.err) || s.ctx.Err() != nil {
			break
		}
		s.retry.pause(attempt)
		b = s.fetchLayer(layer, true, b.data)
	}
	return b
}

// installLocked publishes a fetched bundle as current, recycles the
// bundle it displaces, and tops the prefetch pipeline back up to the
// store's depth. Caller holds mu.
func (s *PrefetchStore) installLocked(b *layerBundle) {
	old := s.cur
	s.cur = b
	if old != nil && old != b {
		// The consumer has moved past old's layer; in recycle mode its
		// slabs become the decode targets of upcoming prefetches. The
		// single-consumer contract is what makes this safe: nobody still
		// reads old's slices.
		s.recycleBundleLocked(old)
	}
	s.scheduleLocked()
}

// scheduleLocked starts background fetches until prefetchDepth layers
// are in flight, walking the schedule cycle from the last scheduled layer
// (never after an error or cancellation). Caller holds mu.
func (s *PrefetchStore) scheduleLocked() {
	if s.cur == nil || s.cur.err != nil || s.ctx.Err() != nil {
		return
	}
	last := s.cur.layer
	if n := len(s.pending); n > 0 {
		last = s.pending[n-1].layer
	}
	for len(s.pending) < prefetchDepth {
		next, ok := s.next[last]
		if !ok {
			return
		}
		dsts := s.takeSlabsLocked(next)
		t := &fetchTicket{layer: next, done: make(chan struct{})}
		s.pending = append(s.pending, t)
		go func() {
			// Background fetches take a single attempt per tensor: a failure
			// here is recoverable (the consumer refetches in the foreground
			// and the degraded counter records the fault), so the retry
			// budget is saved for the path where failure is terminal. A
			// panic in the backing store becomes the bundle's error too: no
			// caller can recover it on this goroutine.
			defer close(t.done)
			defer func() {
				if r := recover(); r != nil {
					t.bundle = &layerBundle{layer: t.layer, err: fmt.Errorf("infer: prefetch L%d panicked: %v", t.layer, r)}
				}
			}()
			t.bundle = s.fetchLayer(t.layer, false, dsts)
		}()
		last = next
	}
}

// takeSlabsLocked prepares the decode-target map for a layer fetch from
// the free pools: recycled buffers keyed by tensor name (absent names
// decode into fresh allocations). Returns nil when recycling is off (no
// IntoStore backing).
// Caller holds mu.
func (s *PrefetchStore) takeSlabsLocked(layer int) map[string]weight {
	if s.into == nil {
		return nil
	}
	names := s.names[layer]
	var dsts map[string]weight
	if n := len(s.freeMaps); n > 0 {
		dsts = s.freeMaps[n-1]
		s.freeMaps = s.freeMaps[:n-1]
	} else {
		dsts = make(map[string]weight, len(names))
	}
	for _, name := range names {
		if bufs := s.free[name]; len(bufs) > 0 {
			dsts[name] = weight{f32: bufs[len(bufs)-1]}
			s.free[name] = bufs[:len(bufs)-1]
		}
	}
	return dsts
}

// recycleBundleLocked returns a bundle's f32 buffers (and its map) to
// the free pools for upcoming fetches; packed views are simply dropped.
// No-op when recycling is off. Caller holds mu.
func (s *PrefetchStore) recycleBundleLocked(b *layerBundle) {
	if s.into == nil || b == nil || b.data == nil {
		return
	}
	for name, w := range b.data {
		if cap(w.f32) > 0 {
			s.free[name] = append(s.free[name], w.f32)
		}
	}
	clear(b.data)
	s.freeMaps = append(s.freeMaps, b.data)
	b.data = nil
}

// fetchLayer reads every tensor of a layer from the backing store,
// checking for cancellation between tensors. With retry set, each
// transiently failed tensor read is re-attempted individually under the
// store's retry policy before it fails the bundle. dsts, when non-nil,
// supplies recycled decode targets (and becomes the bundle's data map).
func (s *PrefetchStore) fetchLayer(layer int, retry bool, dsts map[string]weight) *layerBundle {
	names, ok := s.names[layer]
	if !ok {
		return &layerBundle{layer: layer, err: fmt.Errorf("infer: prefetch: unknown layer %d", layer)}
	}
	data := dsts
	if data == nil {
		data = make(map[string]weight, len(names))
	}
	b := &layerBundle{layer: layer, data: data}
	for _, name := range names {
		if err := s.ctx.Err(); err != nil {
			b.err = fmt.Errorf("infer: prefetch L%d cancelled: %w", layer, err)
			return b
		}
		w, err := s.storePaths.fetch(layer, name, data[name].f32)
		if retry {
			for attempt := 1; err != nil && attempt <= s.retry.Max; attempt++ {
				if !fault.IsTransient(err) || s.ctx.Err() != nil {
					break
				}
				s.retry.pause(attempt)
				w, err = s.storePaths.fetch(layer, name, data[name].f32)
			}
		}
		if err != nil {
			b.err = fmt.Errorf("infer: prefetch L%d/%s: %w", layer, name, err)
			return b
		}
		b.data[name] = w
	}
	return b
}

// Stats reports prefetch hits (layer was ready or in flight when first
// requested) and misses (fetched in the foreground).
func (s *PrefetchStore) Stats() (hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// DegradedFetches reports how many background fetches failed and were
// recovered (or definitively failed) by a foreground retry — the
// observable count of storage faults the generation absorbed.
func (s *PrefetchStore) DegradedFetches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// Settle blocks until no background fetch is in flight, leaving the
// completed prefetches pending for the next consumer. Serving workers
// call it between requests so no fetch issued under one request's
// generation pin outlives that pin.
func (s *PrefetchStore) Settle() {
	s.mu.Lock()
	ts := append([]*fetchTicket(nil), s.pending...)
	s.mu.Unlock()
	for _, t := range ts {
		<-t.done
	}
}

// Close cancels the prefetcher and waits for every in-flight fetch, so
// no background work outlives the store. Fetches after Close fail with
// the cancellation error.
func (s *PrefetchStore) Close() error {
	s.cancel()
	s.mu.Lock()
	ts := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, t := range ts {
		<-t.done
	}
	return nil
}
