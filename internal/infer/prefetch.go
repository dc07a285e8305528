package infer

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"helmsim/internal/fault"
	"helmsim/internal/model"
	"helmsim/internal/parallel"
	"helmsim/internal/quant"
)

// PrefetchStore overlaps the next layer's weight fetch with the current
// layer's compute: the executable counterpart of Listing 1's
// load_weight(i, j+1) ∥ compute(i, j). Over a backing store that hands
// out packed views (PackedStore) the overlapped work is a transfer, as
// in the paper — page-in or read, CRC, metadata validation — and 4-bit
// tensors stay packed until a kernel consumes them; only tensors with
// no packed form (raw records, or any tensor of a store that can only
// decode) are decoded here. The first request for a tensor of layer L
// hands back the prefetched bundle (or fetches it synchronously on a
// miss) and immediately posts the fetch of L's successor; because the
// schedule cycles input-embed → blocks → output-embed → input-embed (the
// zig-zag's per-step wrap), the output layer's prefetch warms the next
// step's embedding.
//
// The load lane runs on the compute lane's pool (DESIGN §3h): a posted
// fetch is a parallel.Task of one item per tensor, so there is no
// goroutine to start, wake or wait for. Pool workers take tensors off it
// whenever the engine's forks leave them idle; when the engine asks for
// the layer it fetches what is still unclaimed itself and waits only for
// a tensor a worker is in the middle of — on one processor, or under a
// model too small to fork, the plain engine's fetch loop at its cost.
// LaneStats counts who fetched what. One ticket is in flight, so peak
// residency is two layers; a second layer ahead would be a second
// background slot, worth asking for only on more than two cores.
//
// Errors from a posted fetch — a panic in the backing store included —
// surface on the first request for that layer, and cancelling the
// construction context (or calling Close) stops the prefetcher and fails
// subsequent fetches cleanly.
//
// The store degrades gracefully under storage faults: a failed *posted*
// fetch does not poison the generation — the consuming call retries the
// layer in the foreground (with the store's bounded Retry policy when
// one is configured) and the DegradedFetches counter records the event.
// Only when the foreground retry also fails does the error surface to
// the engine.
//
// The store has exactly ONE consumer, a step engine walking layers in
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
	succ  map[int]int      // layer index -> successor in the schedule cycle
	names map[int][]string // layer index -> tensor names, spec order
	retry Retry            // foreground re-attempt policy (zero: none)

	ctx    context.Context
	cancel context.CancelFunc

	// ticket is the one posted fetch, reused layer after layer; item is
	// its body, bound once. Its fields are written by the consumer between
	// a Join and the next Post and read by whoever runs an item.
	ticket fetchTicket
	item   func(i int)

	mu           sync.Mutex
	cur          *layerBundle
	next         *fetchTicket // &ticket while a fetch is posted and unconsumed
	free         map[string][][]float32
	freeMaps     []map[string]weight
	hits, misses int
	degraded     int // posted fetches that failed and were retried in the foreground
	// byWorker and byConsumer split the tensors of consumed tickets by who
	// fetched them: a pool worker, or a goroutine inside the join.
	byWorker, byConsumer int
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

// fetchTicket is one posted layer fetch: item i fetches names[i] into
// res[i], decoding into the recycled buffer dsts holds under that name.
// Items only read dsts; the consumer folds res into it after the join,
// so the buffers a fetch was handed come back whatever its items did.
type fetchTicket struct {
	task   parallel.Task
	layer  int
	names  []string
	dsts   map[string]weight // recycled decode targets; nil when recycling is off
	res    []fetchResult
	failed atomic.Bool // an item failed: the ones not yet started skip
}

// fetchResult is one item's outcome; the zero value is an item that
// skipped because a sibling had failed.
type fetchResult struct {
	w   weight
	ok  bool
	err error
}

// NewPrefetch wraps a weight store with next-layer prefetch for the
// given model. Cancelling ctx aborts any in-flight fetch and fails later
// ones; transiently failed fetches — background ones consumed by the
// engine, and foreground misses — are re-attempted up to r's bound with
// its deterministic backoff (the zero Retry: none). Callers should Close
// the store to stop the prefetcher.
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
		succ:       make(map[int]int, len(layers)),
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
		s.succ[l.Index] = layers[(i+1)%len(layers)].Index
		names := make([]string, len(l.Weights))
		for j, w := range l.Weights {
			names[j] = w.Name
		}
		s.names[l.Index] = names
	}
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.item = s.fetchItem
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

// bundle returns the requested layer's tensors, consuming the posted
// prefetch when it is this layer's, fetching in the foreground when it is
// not, and posting the successor's fetch either way.
func (s *PrefetchStore) bundle(layer int) (*layerBundle, error) {
	s.mu.Lock()
	// An errored bundle is never served from cur: the failure belonged to
	// the call that fetched it. Replaying it would fail every later step
	// after one storage blip, without a single read.
	if b := s.cur; b != nil && b.layer == layer && b.err == nil {
		s.mu.Unlock()
		return b, nil
	}
	t := s.next
	s.mu.Unlock()

	var b *layerBundle
	if t != nil {
		// The ticket stays in next across the join, so a Close from
		// another goroutine joins the same round.
		byWorkers := t.task.Join()
		b = t.collect()
		s.mu.Lock()
		s.next = nil
		s.byWorker += byWorkers
		s.byConsumer += len(t.names) - byWorkers
		switch {
		case b.layer != layer:
			// An off-schedule jump: the posted layer was skipped by the
			// consumer. It is recycled without ever being exposed, and the
			// requested layer is a plain miss.
			s.recycleBundleLocked(b)
			b = nil
			s.misses++
		case b.err != nil && s.ctx.Err() == nil:
			// Graceful degradation: the posted fetch failed, but the
			// generation is not poisoned — re-fetch the layer in the
			// foreground (with retries, when configured) and only
			// surface an error if that fails too. Whatever the failed
			// fetch produced is recycled first.
			s.recycleBundleLocked(b)
			b = nil
			s.degraded++
		default:
			s.hits++
		}
	} else {
		// The prefetcher did not have this layer: first access, or the
		// first after a failed fetch stopped the pipeline.
		s.mu.Lock()
		s.misses++
	}
	if b == nil {
		dsts := s.takeSlabsLocked(layer)
		s.mu.Unlock()
		b = s.fetchLayerRetry(layer, dsts)
		s.mu.Lock()
	}
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
	b := s.fetchLayer(layer, dsts)
	for attempt := 1; b.err != nil && attempt <= s.retry.Max; attempt++ {
		if !fault.IsTransient(b.err) || s.ctx.Err() != nil {
			break
		}
		s.retry.pause(attempt)
		b = s.fetchLayer(layer, b.data)
	}
	return b
}

// installLocked publishes a fetched bundle as current, recycles the
// bundle it displaces, and posts the fetch of the next layer in the
// schedule cycle (never after an error or cancellation) on the ticket,
// whose previous round has been joined and collected. Caller holds mu.
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
	layer, ok := s.succ[b.layer]
	if !ok || b.err != nil || s.ctx.Err() != nil {
		return
	}
	t := &s.ticket
	t.layer, t.names = layer, s.names[layer]
	t.dsts = s.takeSlabsLocked(layer)
	if cap(t.res) < len(t.names) {
		t.res = make([]fetchResult, len(t.names))
	}
	t.res = t.res[:len(t.names)]
	clear(t.res)
	t.failed.Store(false)
	s.next = t
	t.task.Post(len(t.names), s.item)
}

// fetchItem is the body of a posted fetch: tensor i of the ticket's
// layer, a single attempt — a failure here is recoverable (the consumer
// refetches in the foreground and the degraded counter records the
// fault), so the retry budget is saved for the path where failure is
// terminal. Like the foreground loop the fetch stops at the first
// failure: items that start after one skip. A panic in the backing store
// becomes the item's error too: on a pool worker no caller could recover
// it.
func (s *PrefetchStore) fetchItem(i int) {
	t := &s.ticket
	fail := func(err error) {
		t.res[i] = fetchResult{err: err}
		t.failed.Store(true)
	}
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("infer: prefetch L%d panicked: %v", t.layer, r))
		}
	}()
	if t.failed.Load() {
		return
	}
	name := t.names[i]
	w, err := s.fetchTensor(t.layer, name, t.dsts[name].f32, false)
	if err != nil {
		fail(err)
		return
	}
	t.res[i] = fetchResult{w: w, ok: true}
}

// fetchTensor reads one tensor of a layer fetch from the backing store,
// checking for cancellation first. With retry set, a transiently failed
// read is re-attempted under the store's retry policy before it fails.
func (s *PrefetchStore) fetchTensor(layer int, name string, dst []float32, retry bool) (weight, error) {
	if err := s.ctx.Err(); err != nil {
		return weight{}, fmt.Errorf("infer: prefetch L%d cancelled: %w", layer, err)
	}
	w, err := s.storePaths.fetch(layer, name, dst)
	for attempt := 1; retry && err != nil && attempt <= s.retry.Max; attempt++ {
		if !fault.IsTransient(err) || s.ctx.Err() != nil {
			break
		}
		s.retry.pause(attempt)
		w, err = s.storePaths.fetch(layer, name, dst)
	}
	if err != nil {
		return weight{}, fmt.Errorf("infer: prefetch L%d/%s: %w", layer, name, err)
	}
	return w, nil
}

// collect folds a joined ticket's results into a bundle, on the calling
// goroutine: the data map is the ticket's decode-target map (fresh when
// recycling is off) with every fetched tensor stored over its target, so
// the buffers of items that failed or skipped are still in it; the error
// is the first in spec order.
func (t *fetchTicket) collect() *layerBundle {
	b := &layerBundle{layer: t.layer, data: t.dsts}
	if b.data == nil {
		b.data = make(map[string]weight, len(t.names))
	}
	t.dsts = nil
	for i, name := range t.names {
		switch r := &t.res[i]; {
		case r.ok:
			b.data[name] = r.w
		case r.err != nil && b.err == nil:
			b.err = r.err
		}
	}
	return b
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

// fetchLayer reads every tensor of a layer from the backing store in the
// foreground, stopping at the first that fails: each transiently failed
// tensor read is re-attempted individually under the store's retry
// policy before it fails the bundle. dsts, when non-nil, supplies
// recycled decode targets (and becomes the bundle's data map).
func (s *PrefetchStore) fetchLayer(layer int, dsts map[string]weight) *layerBundle {
	names, ok := s.names[layer]
	if !ok {
		return &layerBundle{layer: layer, err: fmt.Errorf("infer: prefetch: unknown layer %d", layer)}
	}
	b := &layerBundle{layer: layer, data: dsts}
	if b.data == nil {
		b.data = make(map[string]weight, len(names))
	}
	for _, name := range names {
		w, err := s.fetchTensor(layer, name, b.data[name].f32, true)
		if err != nil {
			b.err = err
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

// LaneStats splits the tensors of the posted fetches consumed so far by
// who ran them: pool workers, beside the engine's compute — the overlap,
// counted — or a goroutine inside the join, on the engine's time.
// Foreground fetches (misses, degraded retries) are in neither.
func (s *PrefetchStore) LaneStats() (byWorker, byConsumer int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byWorker, s.byConsumer
}

// Settle blocks until no posted fetch is in flight, leaving the
// completed prefetch for the next consumer; the calling goroutine
// fetches what no worker has claimed. Serving workers call it between
// requests so no fetch issued under one request's generation pin outlives
// that pin; beside a consumer that keeps stepping there is nearly always
// a fetch posted, and Settle returns when the consumer pauses.
func (s *PrefetchStore) Settle() { s.ticket.task.Join() }

// Close cancels the prefetcher, drops the posted fetch and waits for its
// in-flight tensors, so no store access outlives the call. Fetches after
// Close fail with the cancellation error.
func (s *PrefetchStore) Close() error {
	s.cancel()
	s.mu.Lock()
	s.next = nil
	s.mu.Unlock()
	s.Settle()
	return nil
}
