package infer

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"helmsim/internal/fault"
	"helmsim/internal/model"
	"helmsim/internal/parallel"
)

// loader is a step engine's one view of its weight store. The engine asks
// it for a layer once per layer visit and reads every tensor of that layer
// from the bundle it returns, so a weight crosses the store boundary once
// per layer per step however many sequences the step stacks — the
// executable counterpart of the zig-zag schedule's weight reuse (§II-B).
//
// The store's optional fetch paths are resolved once, in order of
// preference: packed views (4-bit tensors arrive as validated views of
// their stored bytes and stay packed until a kernel consumes them), decode
// into the loader's recycled buffers, zero-copy views of the store's own
// storage (a resident MemStore), plain copies.
//
// A prefetching loader (NewStepEnginePrefetched) overlaps the next layer's
// fetch with the current layer's compute: Listing 1's load_weight(i, j+1)
// ∥ compute(i, j). Installing layer L posts the fetch of L's successor;
// because the schedule cycles input-embed → blocks → output-embed →
// input-embed (the zig-zag's per-step wrap), the output layer's prefetch
// warms the next step's embedding. The load lane runs on the compute
// lane's pool (DESIGN §3h): a posted fetch is a parallel.Task of one item
// per tensor, so there is no goroutine to start, wake or wait for. Pool
// workers take tensors off it whenever the engine's forks leave them idle;
// when the engine asks for the layer it fetches what is still unclaimed
// itself and waits only for a tensor a worker is in the middle of — on one
// processor, or under a model too small to fork, the plain engine's fetch
// loop at its cost. One ticket is in flight, so peak residency is two
// layers. A plain loader (NewStepEngine) fetches each layer in the
// foreground when the engine reaches it and posts nothing.
//
// Errors from a posted fetch — a panic in the backing store included —
// surface when the engine asks for that layer, and cancelling the
// prefetching loader's context (or closing the engine) stops it and fails
// later fetches cleanly. A failed posted fetch does not poison the
// generation: the loader retries the layer in the foreground under the
// engine's Retry policy and counts a degraded fetch; only when that retry
// fails too does the error reach the engine.
//
// A layer's tensors are addressed by slot, their position in the layer's
// spec list, never by a map: a bundle is slices indexed by slot, and the
// layer tables are slices indexed by the dense Layer.Index. The loader
// owns two bundles' worth of storage, the current layer's and the
// ticket's, and swaps them at every install, so fetching allocates
// nothing once the decode buffers have grown.
//
// The loader has exactly ONE consumer, its engine. Each layer is fetched
// into the storage and decode buffers of a layer the engine has already
// left, so a second reader would see torn weights; engines that share a
// store each have their own loader.
type loader struct {
	backing WeightStore
	packed  PackedStore // validated packed views of 4-bit tensors
	into    IntoStore   // decode into recycled buffers (f32 recycling is then on)
	views   ViewStore   // zero-copy f32 views of the store's own storage

	names [][]string // by layer index: the layer's tensor names, spec order
	succ  []int      // by layer index: the successor in the schedule cycle
	retry Retry      // foreground re-attempt policy (zero: none)

	// ctx is what makes a loader prefetch: it is set by
	// NewStepEnginePrefetched, bounds every fetch, and Close cancels it. A
	// plain loader has none, posts nothing and is never stopped.
	ctx    context.Context
	cancel context.CancelFunc

	// ticket is the one posted fetch, reused layer after layer; item is
	// its body, bound once. Its fields are written by the consumer between
	// a Join and the next Post and read by whoever runs an item. Its
	// bundle's storage is also where foreground fetches land.
	ticket fetchTicket
	item   func(i int)

	mu   sync.Mutex
	cur  layerBundle
	next *fetchTicket // &ticket while a fetch is posted and unconsumed
	// fetches counts the tensors installed for the engine, one per tensor
	// per layer visit.
	fetches      int
	hits, misses int
	degraded     int // posted fetches that failed and were retried in the foreground
	// byWorker and byConsumer split the tensors of consumed tickets by who
	// fetched them: a pool worker, or a goroutine inside the join.
	byWorker, byConsumer int
}

// layerBundle is one layer's tensors, fully fetched (or the error that
// interrupted the fetch): data[j] is names[j], a packed view when the
// store serves it packed, f32 values otherwise. It is the one holder of
// packed views (DESIGN §3h). Its slices are one of the loader's two
// storages; bufs[j] is the f32 buffer slot j last held, which the into
// path decodes into next, kept while a packed view takes the slot.
type layerBundle struct {
	layer int
	names []string
	data  []weight
	bufs  [][]float32
	err   error
}

// fetchTicket is one posted layer fetch: item i fetches b.names[i] into
// res[i], decoding into b.bufs[i]. Items only read b; the consumer folds
// res into it after the join, so the buffers a fetch was handed come
// back whatever its items did.
type fetchTicket struct {
	task   parallel.Task
	b      layerBundle
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

// newLoader builds a plain loader for the model's layers over w.
// Transiently failed foreground fetches are re-attempted up to r's bound
// with its deterministic backoff (the zero Retry: none).
func newLoader(layers []model.Layer, w WeightStore, r Retry) (*loader, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if w == nil {
		return nil, fmt.Errorf("infer: nil weight store")
	}
	l := &loader{
		backing: w,
		names:   make([][]string, len(layers)),
		succ:    make([]int, len(layers)),
		retry:   r,
		cancel:  func() {},
	}
	l.packed, _ = w.(PackedStore)
	l.into, _ = w.(IntoStore)
	l.views, _ = w.(ViewStore)
	slots := 0
	for i, layer := range layers {
		l.succ[layer.Index] = layers[(i+1)%len(layers)].Index
		names := make([]string, len(layer.Weights))
		for j, spec := range layer.Weights {
			names[j] = spec.Name
		}
		l.names[layer.Index] = names
		slots = max(slots, len(names))
	}
	for _, b := range []*layerBundle{&l.cur, &l.ticket.b} {
		*b = layerBundle{layer: -1, data: make([]weight, 0, slots), bufs: make([][]float32, slots)}
	}
	l.ticket.res = make([]fetchResult, 0, slots)
	l.item = l.fetchItem
	return l, nil
}

// stopped is the error a prefetching loader's fetches fail with once its
// context is done, nil before that and always nil for a plain loader.
func (l *loader) stopped() error {
	if l.ctx == nil {
		return nil
	}
	return l.ctx.Err()
}

// layer returns the bundle of the layer the engine is about to compute:
// the current one when the engine asks for it again, the posted fetch
// when that is this layer's, a foreground fetch otherwise. The bundle
// becomes current, the storage it displaces becomes the ticket's, and a
// prefetching loader posts the fetch of the successor.
func (l *loader) layer(layer int) (layerBundle, error) {
	l.mu.Lock()
	// An errored bundle is never served from cur: the failure belonged to
	// the visit that fetched it. Replaying it would fail every later step
	// after one storage blip, without a single read.
	if b := l.cur; b.layer == layer && b.err == nil {
		l.mu.Unlock()
		return b, nil
	}
	t := l.next
	l.mu.Unlock()

	var b layerBundle
	ready := false
	if t != nil {
		// The ticket stays in next across the join, so a Close from
		// another goroutine joins the same round.
		byWorkers := t.task.Join()
		b = t.collect()
		l.mu.Lock()
		l.next = nil
		l.byWorker += byWorkers
		l.byConsumer += len(b.names) - byWorkers
		switch {
		case b.layer != layer:
			// An off-schedule jump: the posted layer was skipped by the
			// engine. It is never exposed — the requested layer, a plain
			// miss, is fetched over it.
			l.misses++
		case b.err == nil:
			l.hits++
			ready = true
		case l.stopped() != nil:
			// The fetch failed because the loader was stopped: nothing
			// was prefetched, and the cancellation is the layer's error.
			l.misses++
			ready = true
		default:
			// Graceful degradation: the posted fetch failed, but the
			// generation is not poisoned — re-fetch the layer in the
			// foreground (with retries, when configured), over whatever
			// the failed fetch produced, and only surface an error if
			// that fails too.
			l.degraded++
		}
	} else {
		// Nothing was posted for this layer: a plain loader, the first
		// access, or the first after a failed fetch stopped the pipeline.
		l.mu.Lock()
		if l.ctx != nil {
			l.misses++
		}
	}
	if !ready {
		l.mu.Unlock()
		// No fetch is in flight on the ticket: it was joined, or never
		// posted (or Close took it, after cancelling, so this fetch
		// stops before its first read).
		b = l.fetchLayerRetry(layer, l.ticket.b)
		l.mu.Lock()
	}
	l.installLocked(b)
	l.mu.Unlock()
	return b, b.err
}

// fetchLayerRetry is fetchLayer under the engine's foreground retry
// policy: transient failures are re-attempted with deterministic
// backoff; permanent ones (corruption, closed checkpoint, cancellation)
// surface immediately. Retrying happens per tensor (a failed tensor is
// re-read alone, not the whole layer) — a layer-granular retry
// compounds the per-tensor fault rate across every tensor of the layer
// on each attempt, which can exhaust even a deep retry budget under a
// modest injected fault rate. The outer layer-level loop remains as a
// second line of defense. Re-attempts reuse the failed bundle's storage
// (every IntoStore fully overwrites a buffer before success).
func (l *loader) fetchLayerRetry(layer int, b layerBundle) layerBundle {
	b = l.fetchLayer(layer, b)
	for attempt := 1; b.err != nil && attempt <= l.retry.Max; attempt++ {
		if !fault.IsTransient(b.err) || l.stopped() != nil {
			break
		}
		l.retry.pause(attempt)
		b = l.fetchLayer(layer, b)
	}
	return b
}

// installLocked publishes a bundle fetched into the ticket's storage as
// current, hands the storage it displaces to the ticket, and — on a
// prefetching loader, never after an error or cancellation — posts the
// fetch of the next layer in the schedule cycle on the ticket, whose
// previous round has been joined and collected. Caller holds mu.
func (l *loader) installLocked(b layerBundle) {
	if b.err != nil {
		// The failed bundle keeps the ticket's storage, so this write
		// cannot race a Close still joining the ticket's last round; the
		// current layer is marked failed and is never served again.
		l.cur.err = b.err
		return
	}
	// The engine has moved past the displaced layer; its storage and
	// decode buffers become the targets of upcoming fetches. The
	// single-consumer contract is what makes this safe: nobody still
	// reads them.
	l.cur, l.ticket.b = b, l.cur
	l.fetches += len(b.names)
	if l.ctx == nil || l.ctx.Err() != nil {
		return
	}
	t := &l.ticket
	layer := l.succ[b.layer]
	t.b = t.b.reset(layer, l.names[layer])
	t.res = t.res[:len(t.b.names)]
	clear(t.res)
	t.failed.Store(false)
	l.next = t
	t.task.Post(len(t.b.names), l.item)
}

// reset points the storage b at layer's tensors, none fetched yet; the
// decode buffers stay for the fetch to reuse.
func (b layerBundle) reset(layer int, names []string) layerBundle {
	b.layer, b.names, b.err = layer, names, nil
	b.data = b.data[:len(names)]
	clear(b.data)
	return b
}

// put stores the fetched tensor of slot j, keeping its f32 values as the
// slot's next decode buffer.
func (b layerBundle) put(j int, w weight) {
	b.data[j] = w
	if !w.packed {
		b.bufs[j] = w.f32
	}
}

// fetchItem is the body of a posted fetch: tensor i of the ticket's
// layer, a single attempt — a failure here is recoverable (the consumer
// refetches in the foreground and the degraded counter records the
// fault), so the retry budget is saved for the path where failure is
// terminal. Like the foreground loop the fetch stops at the first
// failure: items that start after one skip. A panic in the backing store
// becomes the item's error too: on a pool worker no caller could recover
// it.
func (l *loader) fetchItem(i int) {
	t := &l.ticket
	fail := func(err error) {
		t.res[i] = fetchResult{err: err}
		t.failed.Store(true)
	}
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("infer: prefetch L%d panicked: %v", t.b.layer, r))
		}
	}()
	if t.failed.Load() {
		return
	}
	w, err := l.fetchTensor(t.b.layer, t.b.names[i], t.b.bufs[i], false)
	if err != nil {
		fail(err)
		return
	}
	t.res[i] = fetchResult{w: w, ok: true}
}

// fetchTensor reads one tensor of a layer fetch from the store, checking
// for cancellation first. With retry set, a transiently failed read is
// re-attempted under the retry policy before it fails.
func (l *loader) fetchTensor(layer int, name string, dst []float32, retry bool) (weight, error) {
	if err := l.stopped(); err != nil {
		return weight{}, fmt.Errorf("infer: load L%d cancelled: %w", layer, err)
	}
	w, err := l.read(layer, name, dst)
	for attempt := 1; retry && err != nil && attempt <= l.retry.Max; attempt++ {
		if !fault.IsTransient(err) || l.stopped() != nil {
			break
		}
		l.retry.pause(attempt)
		w, err = l.read(layer, name, dst)
	}
	if err != nil {
		return weight{}, fmt.Errorf("infer: load L%d/%s: %w", layer, name, err)
	}
	return w, nil
}

// read fetches one tensor by the best path the store offers for it: a
// packed view when the store serves the tensor packed, else decoded —
// into dst, as a borrowed view, or as a plain copy.
func (l *loader) read(layer int, name string, dst []float32) (weight, error) {
	if l.packed != nil {
		if q, ok, err := l.packed.TensorPacked(layer, name); ok || err != nil {
			return weight{q: q, packed: ok}, err
		}
	}
	var d []float32
	var err error
	switch {
	case l.into != nil:
		d, err = l.into.TensorInto(layer, name, dst)
	case l.views != nil:
		d, err = l.views.TensorView(layer, name)
	default:
		d, err = l.backing.Tensor(layer, name)
	}
	return weight{f32: d}, err
}

// collect folds a joined ticket's results into its bundle, on the
// calling goroutine: every fetched tensor is put in its slot, so the
// decode buffers of items that failed or skipped are still in the
// storage; the error is the first in spec order.
func (t *fetchTicket) collect() layerBundle {
	b := t.b
	for i := range b.names {
		switch r := &t.res[i]; {
		case r.ok:
			b.put(i, r.w)
		case r.err != nil && b.err == nil:
			b.err = r.err
		}
	}
	return b
}

// fetchLayer reads every tensor of a layer in the foreground into the
// storage b, stopping at the first that fails: each transiently failed
// tensor read is re-attempted individually under the retry policy
// before it fails the bundle.
func (l *loader) fetchLayer(layer int, b layerBundle) layerBundle {
	if layer < 0 || layer >= len(l.names) {
		b.layer, b.err = layer, fmt.Errorf("infer: load: unknown layer %d", layer)
		return b
	}
	b = b.reset(layer, l.names[layer])
	for j, name := range b.names {
		w, err := l.fetchTensor(layer, name, b.bufs[j], true)
		if err != nil {
			b.err = err
			return b
		}
		b.put(j, w)
	}
	return b
}

// WeightFetches reports the tensors the engine has read from its store:
// one per tensor per layer visit, whichever lane fetched it.
func (se *StepEngine) WeightFetches() int {
	l := se.ld
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fetches
}

// PrefetchStats reports prefetch hits (the layer was ready or in flight
// when the engine reached it) and misses (fetched in the foreground);
// zeros for a plain NewStepEngine.
func (se *StepEngine) PrefetchStats() (hits, misses int) {
	l := se.ld
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses
}

// DegradedFetches reports how many posted fetches failed and were
// recovered (or definitively failed) by a foreground retry — the
// observable count of storage faults the generation absorbed; zero for a
// plain NewStepEngine.
func (se *StepEngine) DegradedFetches() int {
	l := se.ld
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// LaneStats splits the tensors of the posted fetches consumed so far by
// who ran them: pool workers, beside the engine's compute — the overlap,
// counted — or a goroutine inside the join, on the engine's time. Its
// measured overlap is byWorker / (byWorker + byConsumer). Foreground
// fetches (misses, degraded retries, a plain engine's) are in neither.
func (se *StepEngine) LaneStats() (byWorker, byConsumer int) {
	l := se.ld
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byWorker, l.byConsumer
}

// Settle blocks until no posted fetch is in flight, leaving the
// completed prefetch for the engine; the calling goroutine fetches what
// no worker has claimed. Callers use it between requests so no fetch
// issued for one request outlives it;
// beside an engine that keeps stepping there is nearly always a fetch
// posted, and Settle returns when the engine pauses.
func (se *StepEngine) Settle() { se.ld.ticket.task.Join() }

// Close stops the prefetcher, drops the posted fetch and waits for its
// in-flight tensors, so no store access outlives the call. Steps after
// Close fail with the cancellation error. Close is a no-op on a plain
// NewStepEngine.
func (se *StepEngine) Close() error {
	l := se.ld
	l.cancel()
	l.mu.Lock()
	l.next = nil
	l.mu.Unlock()
	se.Settle()
	return nil
}
