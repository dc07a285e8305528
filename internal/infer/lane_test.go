package infer

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"helmsim/internal/model"
	"helmsim/internal/parallel"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// The load lane's share is counted, not subtracted: LaneStats splits the
// prefetched tensors by who fetched them. At one worker nothing is ever
// published to the pool, so every tensor is fetched by the engine at the
// join; at two, on a model whose decode forks, the pool worker beside the
// engine does most of the fetching; a plain engine has no lane at all.
//
// At two workers the split is held to what the test controls, not to how
// the host schedules two goroutines: a laneGate keeps the engine waiting
// at each join until pool workers have begun half of the layer's fetches,
// and counts every fetch the store sees, so LaneStats must account for
// exactly those fetches and show pool workers with at least half. If the
// workers never fetch, the gate gives up and the test fails.
func TestLaneStatsCountsWhoFetched(t *testing.T) {
	cfg := oocShaped()
	path := writeTestCheckpoint(t, cfg, 13)
	prompt := make([]int, 16)
	for i := range prompt {
		prompt[i] = 1 + i
	}
	const steps = 20
	// decodeShare runs decode steps on a fresh engine, over gate when it
	// is not nil, and returns the lane counts they added.
	decodeShare := func(t *testing.T, prefetched bool, gate *laneGate) (byWorker, byConsumer int) {
		t.Helper()
		fs, err := OpenFileStoreMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		var store PackedStore = fs
		if gate != nil {
			gate.FileStore = fs
			store = gate
		}
		var se *StepEngine
		if prefetched {
			se, err = NewStepEnginePrefetched(context.Background(), cfg, store, Retry{})
		} else {
			se, err = NewStepEngine(cfg, store)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		step, _ := decodeStepper(t, cfg, se, prompt, 1)
		// Settled on both sides, the window holds one embedding-layer
		// ticket fetched before it and consumed in it, and one fetched in
		// it and consumed after: the store sees exactly the fetches
		// LaneStats counts.
		se.Settle()
		w0, c0 := se.LaneStats()
		posted0 := gate.posted()
		for i := 0; i < steps; i++ {
			step()
		}
		se.Settle()
		w1, c1 := se.LaneStats()
		if hits, _ := se.PrefetchStats(); prefetched && w1+c1 == 0 || !prefetched && hits != 0 {
			t.Fatalf("prefetched=%v: %d hits, lane counts %d+%d", prefetched, hits, w1, c1)
		}
		if posted := gate.posted() - posted0; gate != nil && posted != w1-w0+c1-c0 {
			t.Errorf("LaneStats counts %d + %d prefetched tensors, the store saw %d posted fetches", w1-w0, c1-c0, posted)
		}
		return w1 - w0, c1 - c0
	}
	perStep := weightCount(cfg)

	t.Run("one worker", func(t *testing.T) {
		defer tensor.SetParallelism(tensor.SetParallelism(1))
		w, c := decodeShare(t, true, nil)
		if w != 0 || c != steps*perStep {
			t.Errorf("at one worker: %d tensors by pool workers, %d by the consumer; want 0 and %d", w, c, steps*perStep)
		}
	})
	t.Run("plain engine", func(t *testing.T) {
		if w, c := decodeShare(t, false, nil); w != 0 || c != 0 {
			t.Errorf("plain engine reports lane counts %d, %d", w, c)
		}
	})
	t.Run("two workers", func(t *testing.T) {
		if runtime.NumCPU() < 2 {
			t.Skip("one processor: no worker can run beside the engine")
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		defer tensor.SetParallelism(tensor.SetParallelism(2))
		gate := newLaneGate(cfg)
		w, c := decodeShare(t, true, gate)
		if stalled := gate.stalledAt(); stalled != "" {
			t.Fatal(stalled)
		}
		if w+c != steps*perStep {
			t.Fatalf("lane counts %d + %d over %d steps, want %d tensors", w, c, steps, steps*perStep)
		}
		if share := float64(w) / float64(w+c); share < 0.5 {
			t.Errorf("pool workers fetched %.2f of the prefetched tensors at two workers, want at least half", share)
		}
		t.Logf("by-worker share %.2f", float64(w)/float64(w+c))
	})
}

// laneGate stands between a prefetching engine and its store. It tells
// who makes each fetch from the call stack — a pool worker runs it under
// parallel's worker loop, the engine under Task.Join (a posted item it
// claimed at the join) or in the foreground — and counts the posted ones.
// An engine fetch of a posted layer waits until pool workers have begun
// half of that layer's fetches, or every one the engine is not holding,
// rousing the pool while it waits (posting wakes nobody). A layer's
// fetches never overlap another's, one ticket being in flight at a time,
// so a fetch of a new layer starts a new round of counts.
type laneGate struct {
	*FileStore
	sizes map[int]int // tensors per layer

	mu                 sync.Mutex
	layer              int // the round's layer
	byWorker, byEngine int // the round's fetches begun so far
	postedFetches      int
	stalled            string // why the gate gave up; it then only counts
}

func newLaneGate(cfg model.Config) *laneGate {
	g := &laneGate{sizes: make(map[int]int), layer: -1}
	for _, l := range cfg.Layers() {
		g.sizes[l.Index] = len(l.Weights)
	}
	return g
}

// The loader reads every tensor through TensorPacked first, so that is
// where each fetch is counted and gated.
func (g *laneGate) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	onWorker, inJoin := fetchCaller()
	g.mu.Lock()
	if layer != g.layer {
		g.layer, g.byWorker, g.byEngine = layer, 0, 0
	}
	switch {
	case onWorker:
		g.byWorker++
		g.postedFetches++
	case inJoin:
		g.byEngine++
		g.postedFetches++
		n := g.sizes[layer]
		need := min((n+1)/2, n-g.byEngine)
		for deadline := time.Now().Add(20 * time.Second); g.byWorker < need && g.stalled == ""; {
			if time.Now().After(deadline) {
				g.stalled = fmt.Sprintf("no pool worker began a fetch of L%d in 20 s while the engine waited at the join (%d of %d begun by workers)", layer, g.byWorker, n)
				break
			}
			g.mu.Unlock()
			parallel.For(2, 1, func(int, int) {})
			time.Sleep(50 * time.Microsecond)
			g.mu.Lock()
		}
	}
	g.mu.Unlock()
	return g.FileStore.TensorPacked(layer, name)
}

// posted is how many fetches of posted items the gate has seen (0 for a
// nil gate).
func (g *laneGate) posted() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.postedFetches
}

func (g *laneGate) stalledAt() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stalled
}

// fetchCaller reports whether the calling goroutine is a pool worker
// running a posted item, or the engine running one it claimed at the
// join; neither is a foreground fetch.
func fetchCaller() (onWorker, inJoin bool) {
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		switch f.Function {
		case "helmsim/internal/parallel.(*pool).worker":
			return true, false
		case "helmsim/internal/parallel.(*pool).finish":
			return false, true
		}
		if !more {
			return false, false
		}
	}
}

// orderStore fails two tensors of one layer, and holds the earlier one's
// failure back until the later one has failed: the ticket's first error
// in time is not its first in spec order.
type orderStore struct {
	backing      WeightStore
	layer        int
	early, late  string
	lateFailed   chan struct{}
	lateFailOnce sync.Once
}

var errEarly, errLate = errors.New("early tensor unreadable"), errors.New("late tensor unreadable")

func (g *orderStore) Tensor(layer int, name string) ([]float32, error) {
	if layer == g.layer {
		switch name {
		case g.late:
			g.lateFailOnce.Do(func() { close(g.lateFailed) })
			return nil, errLate
		case g.early:
			select {
			case <-g.lateFailed:
			case <-time.After(10 * time.Second):
				return nil, fmt.Errorf("nobody fetched %s while %s was held", g.late, g.early)
			}
			return nil, errEarly
		}
	}
	return g.backing.Tensor(layer, name)
}

// A posted fetch reports the first error in spec order — what the
// foreground loop, which stops at the first failing tensor, would have
// reported — whichever item failed first in time. Two joiners stand in
// for the engine and a pool worker: one blocks inside the early tensor,
// the other runs on to the late one. At one worker Post publishes the
// ticket to no pool worker, so those two are its only claimers: a worker
// beside them could start an item after the late failure and before
// failed is set.
func TestLaneFirstErrorInSpecOrder(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 2, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	store := &orderStore{backing: raw, layer: 1, early: "w_k", late: "w_out", lateFailed: make(chan struct{})}
	se, err := NewStepEnginePrefetched(context.Background(), mc, store, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	ld := se.ld
	if _, err := ld.layer(0); err != nil { // installs layer 0, posts layer 1
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			se.Settle()
		}()
	}
	wg.Wait()
	ld.mu.Lock()
	res := append([]fetchResult(nil), ld.next.res...)
	names := ld.next.b.names
	ld.mu.Unlock()
	for i, name := range names {
		switch r := res[i]; {
		case name == "w_k" && !errors.Is(r.err, errEarly), name == "w_out" && !errors.Is(r.err, errLate):
			t.Errorf("item %s: %+v", name, r)
		case i > 6 && (r.ok || r.err != nil):
			t.Errorf("item %s started after a sibling had failed: %+v", name, r)
		}
	}
	// The consumer sees the ticket's error only as a degraded fetch; its
	// foreground retry stops at the same tensor.
	_, err = ld.layer(1)
	if !errors.Is(err, errEarly) {
		t.Errorf("layer 1 failed with %v, want the early tensor's error", err)
	}
	if d := se.DegradedFetches(); d != 1 {
		t.Errorf("degraded fetches = %d, want 1", d)
	}
	// White box: the posted ticket itself named the early tensor.
	tk := fetchTicket{b: layerBundle{layer: 1, names: names, data: make([]weight, len(names)), bufs: make([][]float32, len(names))}, res: res}
	if b := tk.collect(); !errors.Is(b.err, errEarly) {
		t.Errorf("the ticket collected %v, want the first error in spec order", b.err)
	}
}

// An off-schedule request with a ticket posted: the posted layer is
// joined and recycled without being exposed, the requested layer is a
// plain foreground miss with the right contents, and the schedule picks
// up from there.
func TestLaneOffScheduleJumpRecyclesTicket(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 2, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	qs := decodeOnly{memCheckpoint(t, mc, raw)}
	se, err := NewStepEnginePrefetched(context.Background(), mc, qs, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	ld := se.ld
	if ld.into == nil {
		t.Fatal("recycling is off over a decoding FileStore")
	}
	if _, err := ld.layer(0); err != nil {
		t.Fatal(err)
	}
	se.Settle()
	posted := slabSet(ld)
	b, err := ld.layer(3) // layer 1 is posted; nobody asked for 2 or 3
	if err != nil {
		t.Fatal(err)
	}
	want, err := qs.Tensor(3, "w_q")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.data[slices.Index(b.names, "w_q")].f32, want) {
		t.Error("off-schedule layer came back with another layer's contents")
	}
	if hits, misses := se.PrefetchStats(); hits != 0 || misses != 2 {
		t.Errorf("hits, misses = %d, %d; want 0, 2 (cold start and the jump)", hits, misses)
	}
	se.Settle()
	after := slabSet(ld)
	for p := range posted {
		if !after[p] {
			t.Error("a slab of the skipped layer's fetch was dropped instead of recycled")
			break
		}
	}
	if _, err := ld.layer(4); err != nil {
		t.Fatal(err)
	}
	if hits, _ := se.PrefetchStats(); hits != 1 {
		t.Errorf("the layer after the jump was not prefetched (hits = %d)", hits)
	}
}

// slabSet is the identity of every f32 buffer the loader owns: the decode
// buffers of its two storages, and those in the hands of a settled ticket.
func slabSet(ld *loader) map[*float32]bool {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	set := map[*float32]bool{}
	add := func(b []float32) {
		if cap(b) > 0 {
			set[&b[:1][0]] = true
		}
	}
	for _, bufs := range [][][]float32{ld.cur.bufs, ld.ticket.b.bufs} {
		for _, b := range bufs {
			add(b)
		}
	}
	if tk := ld.next; tk != nil {
		for i := range tk.b.names {
			if tk.res[i].ok && tk.b.data[i].decoded {
				add(tk.b.data[i].f32)
			}
		}
	}
	return set
}

// tripInto is a tripStore over a store that decodes into caller buffers.
type tripInto struct{ *tripStore }

func (s tripInto) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	if err := s.trip(layer, name); err != nil {
		return nil, err
	}
	return s.backing.(IntoStore).TensorInto(layer, name, dst)
}

// A posted fetch that panics gives its recycled slabs back. The buffers
// a fetch decodes into belong to the ticket, not to what its items
// return, so after a backing-store panic on a pool item the loader owns
// exactly the buffers it owned before — the degraded retry decodes into
// them — and the steps that follow allocate what they allocate when
// nothing ever went wrong. (The goroutine-per-layer prefetcher built an
// error bundle without its data map: the layer's map and slabs were
// dropped and allocated afresh.)
func TestLanePanicReturnsRecycledSlabs(t *testing.T) {
	mc := tinyOPT()
	raw, err := RandomWeights(mc, 2, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	qs := decodeOnly{memCheckpoint(t, mc, raw)}
	defer tensor.SetParallelism(tensor.SetParallelism(1))

	type outcome struct {
		allocs         float64
		slabs          int
		degraded       int
		identical, tok int
	}
	run := func(boom bool) outcome {
		store := &tripStore{backing: qs, boom: true}
		se, err := NewStepEnginePrefetched(context.Background(), mc, tripInto{store}, Retry{})
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		step, seq := decodeStepper(t, mc, se, []int{1, 2, 3}, 3)
		se.Settle()
		before := slabSet(se.ld)
		if boom {
			// The next read is the first tensor of the fetch layer 0's
			// install posts: layer 1's.
			store.armAt(store.reads() + 1)
		}
		step()
		se.Settle()
		after := slabSet(se.ld)
		var o outcome
		for p := range after {
			if before[p] {
				o.identical++
			}
		}
		if len(after) != len(before) || o.identical != len(before) {
			t.Errorf("boom=%v: the loader owned %d slabs before the step and %d after, %d of them the same", boom, len(before), len(after), o.identical)
		}
		o.slabs = len(after)
		o.degraded = se.DegradedFetches()
		o.allocs = testing.AllocsPerRun(5, step)
		logits, err := se.Step([]*StepSeq{seq})
		if err != nil {
			t.Fatal(err)
		}
		o.tok = logits[0].ArgmaxRow(0)
		return o
	}
	clean, tripped := run(false), run(true)
	if clean.degraded != 0 || tripped.degraded != 1 {
		t.Errorf("degraded fetches: %d without the panic, %d with; want 0 and 1", clean.degraded, tripped.degraded)
	}
	if tripped.allocs != clean.allocs || tripped.slabs != clean.slabs {
		t.Errorf("after a panicked prefetch: %.1f allocs/step, %d slabs; without: %.1f, %d",
			tripped.allocs, tripped.slabs, clean.allocs, clean.slabs)
	}
	if tripped.tok != clean.tok {
		t.Errorf("token after the panic %d, without %d", tripped.tok, clean.tok)
	}
}

// Settle and Close stay callable from a goroutine other than the
// consumer, mid-step: they join the same ticket the engine is consuming.
// Beside a goroutine that settles in a loop every step's token is the
// plain engine's; once another has called Close the step it lands in
// fails with the cancellation and nothing else, and nothing touches the
// store after Close has returned. The -race run is the point.
func TestLaneCloseAndSettleFromSecondGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer tensor.SetParallelism(tensor.SetParallelism(2))
	cfg := oocShaped()
	path := writeTestCheckpoint(t, cfg, 13)
	prompt := []int{5, 6, 7, 8}
	steps := cfg.MaxSeq - len(prompt)

	// tokens steps a fresh sequence until the context is full, the engine
	// fails or stop says so.
	tokens := func(se *StepEngine, stop func(i int) bool) ([]int, error) {
		seq := &StepSeq{Tokens: prompt, KV: NewBlockCaches(cfg)}
		var out []int
		for i := 0; i < steps && !stop(i); i++ {
			logits, err := se.Step([]*StepSeq{seq})
			if err != nil {
				return out, err
			}
			seq.Pos += len(seq.Tokens)
			out = append(out, logits[0].ArgmaxRow(0))
			seq.Tokens = out[len(out)-1:]
		}
		return out, nil
	}
	never := func(int) bool { return false }
	open := func() *FileStore {
		fs, err := OpenFileStoreMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		return fs
	}
	plain, err := NewStepEngine(cfg, open())
	if err != nil {
		t.Fatal(err)
	}
	want, err := tokens(plain, never)
	if err != nil {
		t.Fatal(err)
	}

	fs := open()
	se, err := NewStepEnginePrefetched(context.Background(), cfg, fs, Retry{})
	if err != nil {
		t.Fatal(err)
	}
	// One goroutine settles for as long as the engine steps (a Settle
	// beside a stepping consumer may not return before the consumer
	// pauses: there is nearly always a fetch posted); another closes the
	// store once a few steps are done.
	var settling, closing sync.WaitGroup
	stop, closeNow, closed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	settling.Add(1)
	go func() {
		defer settling.Done()
		for {
			select {
			case <-stop:
				return
			default:
				se.Settle()
			}
		}
	}()
	closing.Add(1)
	go func() {
		defer closing.Done()
		<-closeNow
		se.Close()
		close(closed)
	}()
	var got []int
	deadline := time.Now().Add(20 * time.Second)
	for err == nil && time.Now().Before(deadline) {
		// Whole generations, over and over, until Close lands in one.
		got, err = tokens(se, func(i int) bool {
			if i == 8 {
				select {
				case <-closeNow:
				default:
					close(closeNow)
				}
			}
			return false
		})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("token %d = %d, want %d", i, got[i], want[i])
			}
		}
	}
	close(stop)
	closing.Wait()
	settling.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stepping across a Close ended with %v, want the cancellation", err)
	}
	<-closed
	reads := fs.Reads()
	if _, err := tokens(se, never); !errors.Is(err, context.Canceled) {
		t.Errorf("a step after Close: %v, want the cancellation", err)
	}
	if fs.Reads() != reads {
		t.Errorf("%d store reads after Close returned", fs.Reads()-reads)
	}
}
