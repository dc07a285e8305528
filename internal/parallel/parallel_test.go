package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSetAndN(t *testing.T) {
	prev := Set(3)
	defer Set(prev)
	if N() != 3 {
		t.Errorf("N = %d after Set(3)", N())
	}
	if got := Set(7); got != 3 {
		t.Errorf("Set returned %d, want previous 3", got)
	}
	// Non-positive resets to GOMAXPROCS.
	Set(0)
	if N() != runtime.GOMAXPROCS(0) {
		t.Errorf("N = %d after Set(0), want GOMAXPROCS %d", N(), runtime.GOMAXPROCS(0))
	}
}

// Every index of [0, n) is visited exactly once, at any worker count and
// grain, including the degenerate shapes (n < workers, n == 0, grain > n).
func TestForCoversEachIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 64} {
		prev := Set(w)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{1, 16, 2048} {
				counts := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("w=%d n=%d grain=%d: index %d visited %d times", w, n, grain, i, c)
					}
				}
			}
		}
		Set(prev)
	}
}

// Up to MaxChunks indices, For at grain 1 runs every index as a chunk
// of its own (while no other fork holds the slot), and never more chunks
// than MaxChunks on any range.
func TestMaxChunksIsForsChunkCount(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		prev := Set(w)
		for n := 1; n <= 40; n++ {
			var calls, wide atomic.Int32
			For(n, 1, func(lo, hi int) {
				calls.Add(1)
				if hi-lo > 1 {
					wide.Add(1)
				}
			})
			c, max := int(calls.Load()), MaxChunks()
			if c > max || n <= max && (c != n || wide.Load() != 0) {
				t.Errorf("w=%d n=%d: For ran %d chunks (%d wider than one index), MaxChunks %d", w, n, c, wide.Load(), max)
			}
		}
		Set(prev)
	}
}

// Small inputs must not leave the calling goroutine (grain gating).
func TestForSmallInputsRunInline(t *testing.T) {
	prev := Set(8)
	defer Set(prev)
	var mu sync.Mutex
	calls := 0
	For(10, 100, func(lo, hi int) {
		mu.Lock()
		calls++
		mu.Unlock()
		if lo != 0 || hi != 10 {
			t.Errorf("chunk [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("%d chunks for n=10 grain=100, want 1", calls)
	}
}

// Concurrent For calls share the pool without deadlock or cross-talk.
func TestForConcurrentCallers(t *testing.T) {
	prev := Set(4)
	defer Set(prev)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum atomic.Int64
			For(10000, 1, func(lo, hi int) {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				sum.Add(s)
			})
			if want := int64(10000*9999) / 2; sum.Load() != want {
				t.Errorf("sum = %d, want %d", sum.Load(), want)
			}
		}()
	}
	wg.Wait()
}

// within runs f on its own goroutine and fails the test if it has not
// returned after a generous deadline — the shape a pool deadlock takes.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still running after 10s", what)
	}
}

// coverOnce forks n indices through run and checks each was visited
// exactly once.
func coverOnce(t *testing.T, what string, n, grain int, run func(n, grain int, body func(lo, hi int))) {
	t.Helper()
	counts := make([]int32, n)
	run(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("%s: index %d visited %d times", what, i, c)
		}
	}
}

// atProcs pins GOMAXPROCS and the worker count for one test.
func atProcs(t *testing.T, procs, workers int) {
	t.Helper()
	prevProcs := runtime.GOMAXPROCS(procs)
	prev := Set(workers)
	t.Cleanup(func() {
		Set(prev)
		runtime.GOMAXPROCS(prevProcs)
	})
}

// waitParked waits for every worker of p to be parked.
func waitParked(t *testing.T, p *pool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); p.parked.Load() < p.spawned.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers still hot 10s after the last fork", p.spawned.Load()-p.parked.Load(), p.spawned.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// One slot, one fork in flight: while job A sits in the pool — its caller
// and any worker that joined it blocked inside their chunks — a For for
// job B from another goroutine does not queue behind it; it runs on its
// own goroutine and returns in its own serial time.
func TestForBusySlotRunsInline(t *testing.T) {
	atProcs(t, 2, 2)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		For(8, 1, func(lo, hi int) {
			once.Do(func() { close(started) })
			<-release
		})
	}()
	<-started
	within(t, "For beside a blocked fork", func() { coverOnce(t, "job B", 1000, 1, For) })
	close(release)
	<-aDone
}

// The caller never waits for a worker that has not started: with the
// pool's only worker parked and never scheduled (here: it does not
// exist, only its bookkeeping does), For signals it without blocking and
// covers the whole range itself.
func TestForNeverWaitsForUnstartedWorker(t *testing.T) {
	atProcs(t, 2, 2)
	p := newPool()
	p.spawned.Store(1)
	p.parked.Store(1)
	within(t, "For with an unwakeable worker", func() { coverOnce(t, "parked worker", 1000, 1, p.run) })
	if got := len(p.wake); got != 1 || p.parked.Load() != 0 {
		t.Errorf("after the fork: %d wake tokens, %d parked; want the one parked worker signalled once", got, p.parked.Load())
	}
	// Now the worker counts as hot and still never shows up.
	within(t, "For with an absent hot worker", func() { coverOnce(t, "absent worker", 1000, 1, p.run) })
	if got := len(p.wake); got != 1 {
		t.Errorf("a fork with no parked worker left %d wake tokens, want still 1", got)
	}
	if p.state.Load() != 0 {
		t.Errorf("slot state %#x after the forks, want free", p.state.Load())
	}
}

// A For inside a For body runs inline — on the caller's chunk and on a
// worker's alike — and still covers every index once.
func TestForNestedRunsInline(t *testing.T) {
	atProcs(t, 2, 2)
	const outer, inner = 8, 100
	var counts [outer * inner]int32
	within(t, "nested For", func() {
		For(outer, 1, func(lo, hi int) {
			for o := lo; o < hi; o++ {
				For(inner, 1, func(ilo, ihi int) {
					for i := ilo; i < ihi; i++ {
						atomic.AddInt32(&counts[o*inner+i], 1)
					}
				})
			}
		})
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// Set above GOMAXPROCS cuts more chunks, not more spinning goroutines: on
// two processors at most one worker is ever started or hot.
func TestSetAboveGOMAXPROCSKeepsOneWorkerHot(t *testing.T) {
	atProcs(t, 2, 8)
	p := newPool()
	for i := 0; i < 200; i++ {
		coverOnce(t, "Set(8) on two processors", 1000, 1, p.run)
		if hot := p.spawned.Load() - p.parked.Load(); hot > 1 {
			t.Fatalf("fork %d: %d workers hot on two processors", i, hot)
		}
	}
	if got := p.spawned.Load(); got != 1 {
		t.Errorf("%d workers started, want 1", got)
	}
	waitParked(t, p)
}

// A process that stops forking has every worker parked one budget later,
// and the next fork wakes them again.
func TestWorkersParkAfterLastFork(t *testing.T) {
	atProcs(t, 2, 2)
	p := newPool()
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			coverOnce(t, "burst", 64, 1, p.run)
		}
		if p.spawned.Load() != 1 {
			t.Fatalf("round %d: %d workers started, want 1", round, p.spawned.Load())
		}
		waitParked(t, p)
		if got := len(p.wake); got != 0 {
			t.Fatalf("round %d: %d unconsumed wake tokens with every worker parked", round, got)
		}
	}
}

// The descriptor is reused by every fork. Back-to-back forks of
// alternating size and body must never let a worker that was slow to
// leave one job run the next job's chunks with the old body or bounds.
func TestDescriptorRecycling(t *testing.T) {
	atProcs(t, 2, 3)
	forks := 100000
	if testing.Short() {
		forks = 10000
	}
	var small [7]int32
	var large [61]int32
	bump := func(counts []int32) func(lo, hi int) {
		return func(lo, hi int) {
			if hi > len(counts) {
				panic("chunk bounds belong to another job")
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		}
	}
	bumpSmall, bumpLarge := bump(small[:]), bump(large[:])
	for f := 1; f <= forks; f++ {
		For(len(small), 1, bumpSmall)
		For(len(large), 1, bumpLarge)
		if f%1000 != 0 {
			continue
		}
		for _, counts := range [][]int32{small[:], large[:]} {
			for i := range counts {
				if got := atomic.LoadInt32(&counts[i]); got != int32(f) {
					t.Fatalf("after %d forks of %d: index %d visited %d times", f, len(counts), i, got)
				}
			}
		}
	}
}

// A body that panics on the calling goroutine unwinds through For with
// the slot freed, so a recovered kernel panic (the batcher rebuilds its
// engine on one) does not leave every later fork running inline.
func TestForBodyPanicFreesSlot(t *testing.T) {
	atProcs(t, 2, 2)
	p := newPool()
	p.spawned.Store(1) // a hot worker that never arrives: every chunk runs on the caller
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of For")
			}
		}()
		p.run(8, 1, func(lo, hi int) {
			if lo > 0 {
				panic("kernel bug")
			}
		})
	}()
	if p.state.Load() != 0 || p.pending.Load() != 0 || p.unclaimed.Load() > 0 {
		t.Fatalf("after the panic: state %#x, %d pending, %d unclaimed; want a free slot", p.state.Load(), p.pending.Load(), p.unclaimed.Load())
	}
	chunks := 0
	p.run(8, 1, func(lo, hi int) { chunks++ })
	if chunks < 2 {
		t.Errorf("the fork after a panic ran as %d chunk(s): the slot stayed taken", chunks)
	}
}

// A worker still inside a fork whose chunks are all finished — it found
// none left to claim and has not left yet — does not make the caller's
// next fork run inline: For returns only once every worker has left the
// slot. The lingering worker is a stand-in that enters the slot the way
// a worker does and leaves only once the owner has closed it and is
// waiting, so the verdict does not depend on which goroutine runs first.
func TestForAfterLingeringWorkerSplits(t *testing.T) {
	atProcs(t, 2, 2)
	p := newPool()
	p.spawned.Store(1) // a hot worker that never arrives: every chunk runs on the caller
	var left atomic.Bool
	leave := func() {
		if left.CompareAndSwap(false, true) {
			p.state.Add(^uint64(0))
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	p.run(8, 1, func(lo, hi int) {
		if lo != 0 {
			return
		}
		if s := p.state.Load(); s&slotOpen == 0 || !p.state.CompareAndSwap(s, s+1) {
			t.Errorf("could not enter the slot as a worker: state %#x", s)
			close(done)
			return
		}
		go func() {
			defer close(done)
			for p.state.Load() != slotOwned|1 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			leave()
		}()
	})
	chunks := 0
	p.run(8, 1, func(lo, hi int) { chunks++ })
	close(stop)
	<-done
	leave()
	if chunks < 2 {
		t.Errorf("the fork after one with a lingering worker ran as %d chunk(s): the slot was still taken", chunks)
	}
	if s := p.state.Load(); s != 0 {
		t.Errorf("state %#x after both forks, want a free slot", s)
	}
}

// taskCounts is a Task body that counts how often each item ran. An item
// is a fraction of a microsecond of arithmetic, so that an owner working
// through a Join leaves a hot worker time to claim the next one.
type taskCounts struct {
	counts []atomic.Int32
	body   func(i int)
}

func newTaskCounts(n int) *taskCounts {
	c := &taskCounts{counts: make([]atomic.Int32, n)}
	c.body = func(i int) {
		spin(i, spinPerMicro/4)
		c.counts[i].Add(1)
	}
	return c
}

// check fails unless items [0, n) have each run exactly rounds times and
// no other item has run at all.
func (c *taskCounts) check(t *testing.T, what string, n, rounds int) {
	t.Helper()
	for i := range c.counts {
		want := 0
		if i < n {
			want = rounds
		}
		if got := int(c.counts[i].Load()); got != want {
			t.Fatalf("%s: item %d ran %d times, want %d", what, i, got, want)
		}
	}
}

// Every item of a posted Task runs exactly once per round — on a pool
// worker kept hot by forks between the rounds, or on the owner at Join —
// at any worker count, on one processor, and for the degenerate sizes.
func TestTaskRunsEachItemOnce(t *testing.T) {
	for _, tc := range []struct{ procs, workers int }{{2, 1}, {2, 2}, {3, 3}, {1, 2}} {
		t.Run(fmt.Sprintf("procs=%d/workers=%d", tc.procs, tc.workers), func(t *testing.T) {
			atProcs(t, tc.procs, tc.workers)
			p := newPool()
			rounds := 2000
			if testing.Short() {
				rounds = 200
			}
			helped := 0
			for _, n := range []int{0, 1, 7, 64} {
				c := newTaskCounts(64)
				var task Task
				for r := 0; r < rounds; r++ {
					p.post(&task, n, c.body)
					coverOnce(t, "fork beside a posted task", 256, 1, p.run)
					got := p.finish(&task)
					if got < 0 || got > n {
						t.Fatalf("n=%d: Join reports %d items run by workers", n, got)
					}
					helped += got
				}
				c.check(t, fmt.Sprintf("n=%d", n), n, rounds)
			}
			if p.task.Load() != nil {
				t.Error("background slot still holds a joined task")
			}
			if (tc.workers == 1 || tc.procs == 1) && helped != 0 {
				t.Errorf("%d items ran on pool workers, want every item on the owner", helped)
			}
			t.Logf("%d items ran on pool workers", helped)
		})
	}
}

// Posting wakes nobody and Join is work: with the pool's only worker
// parked and never scheduled (it does not exist, only its bookkeeping
// does) a posted Task sits untouched through a For — the fork's caller
// runs chunks, never items — and the owner runs every item at Join.
func TestTaskJoinWithNoWorker(t *testing.T) {
	atProcs(t, 2, 2)
	p := newPool()
	p.spawned.Store(1)
	p.parked.Store(1)
	c := newTaskCounts(8)
	var task Task
	p.post(&task, 8, c.body)
	if got := len(p.wake); got != 0 || p.parked.Load() != 1 {
		t.Fatalf("Post signalled the parked worker (%d tokens, %d parked)", got, p.parked.Load())
	}
	within(t, "For beside a posted task", func() { coverOnce(t, "fork", 1000, 1, p.run) })
	c.check(t, "after the For, before Join", 0, 0)
	within(t, "Join with no worker", func() {
		if got := p.finish(&task); got != 0 {
			t.Errorf("Join reports %d items run by workers that do not exist", got)
		}
	})
	c.check(t, "after Join", 8, 1)
	// A second Join, and a Join of a Task never posted, return at once.
	var fresh Task
	within(t, "idle Joins", func() { p.finish(&task); p.finish(&fresh) })
	c.check(t, "after the idle Joins", 8, 1)
}

// Foreground first, one item at a time. A worker that has just finished
// an item finds a fork with unclaimed chunks and a Task with unclaimed
// items: it must run the chunks, all of them, before it starts another
// item.
func TestForDuringTaskForegroundFirst(t *testing.T) {
	atProcs(t, 2, 2)
	p := newPool()
	const items = 8
	var started atomic.Int32
	firstIn, firstOut := make(chan struct{}), make(chan struct{})
	c := newTaskCounts(items)
	body := func(i int) {
		c.body(i)
		if started.Add(1) == 1 {
			close(firstIn)
			<-firstOut
		}
	}
	var task Task
	p.post(&task, items, body)
	// A fork wakes the worker; with no chunk left it takes one item and
	// blocks inside it.
	coverOnce(t, "warm-up fork", 64, 1, p.run)
	select {
	case <-firstIn:
	case <-time.After(10 * time.Second):
		t.Fatal("no hot worker took an item of the posted task")
	}

	// The fork: its caller blocks inside the first chunk it claims, so the
	// other three stay unclaimed until the worker comes for them.
	const n = 4
	var callerIn atomic.Bool
	callerChunk, release := make(chan struct{}), make(chan struct{})
	var chunksOnWorker, itemsSeen atomic.Int32
	var counts [n]atomic.Int32
	forked := make(chan struct{})
	go func() {
		defer close(forked)
		p.run(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
			if callerIn.CompareAndSwap(false, true) {
				close(callerChunk)
				<-release
				return
			}
			if s := started.Load(); s > itemsSeen.Load() {
				itemsSeen.Store(s)
			}
			chunksOnWorker.Add(1)
		})
	}()
	<-callerChunk
	close(firstOut) // the worker's item ends: chunks and items are both waiting
	for deadline := time.Now().Add(10 * time.Second); chunksOnWorker.Load() < n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("the worker ran %d of the %d waiting chunks", chunksOnWorker.Load(), n-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := itemsSeen.Load(); got != 1 {
		t.Errorf("%d items had started when the worker ran the fork's chunks, want only the one in flight before it", got)
	}
	close(release)
	<-forked
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Errorf("fork index %d visited %d times", i, got)
		}
	}
	within(t, "Join", func() { p.finish(&task) })
	c.check(t, "after Join", items, 1)
}

// One slot: a second poster displaces the first, whose owner finishes it
// at Join; joining either leaves the other's items alone.
func TestTaskDisplacedFinishedByOwner(t *testing.T) {
	atProcs(t, 2, 2)
	p := newPool()
	ca, cb := newTaskCounts(5), newTaskCounts(9)
	var a, b Task
	p.post(&a, 5, ca.body)
	p.post(&b, 9, cb.body)
	if p.task.Load() != &b {
		t.Fatal("the second Post did not take the slot")
	}
	within(t, "Join of the displaced task", func() { p.finish(&a) })
	ca.check(t, "displaced task", 5, 1)
	cb.check(t, "displacing task, before its Join", 0, 0)
	if p.task.Load() != &b {
		t.Error("joining the displaced task emptied the slot under the other")
	}
	within(t, "Join of the displacing task", func() { p.finish(&b) })
	cb.check(t, "displacing task", 9, 1)
	if p.task.Load() != nil {
		t.Error("slot not emptied by its task's Join")
	}
}

// The descriptor is the caller's, reused round after round with
// alternating sizes and bodies while a worker kept hot by forks helps:
// a worker slow to leave one round must never run the next round's items
// with the old body or bounds, and no item may run twice or be lost. Run
// under -race this is also what shows no field is rewritten under a
// reader.
func TestTaskDescriptorReuse(t *testing.T) {
	atProcs(t, 2, 3)
	rounds := 100000
	if testing.Short() {
		rounds = 10000
	}
	small, large := newTaskCounts(3), newTaskCounts(11)
	bounded := func(c *taskCounts) func(i int) {
		return func(i int) {
			if i >= len(c.counts) {
				panic("item index belongs to another round")
			}
			c.body(i)
		}
	}
	smallBody, largeBody := bounded(small), bounded(large)
	var task Task
	helped := 0
	noop := func(lo, hi int) {}
	for r := 1; r <= rounds; r++ {
		task.Post(len(small.counts), smallBody)
		For(16, 1, noop)
		helped += task.Join()
		task.Post(len(large.counts), largeBody)
		For(16, 1, noop)
		helped += task.Join()
		if r%1000 == 0 {
			small.check(t, "small rounds", len(small.counts), r)
			large.check(t, "large rounds", len(large.counts), r)
		}
	}
	t.Logf("%d of %d items ran on pool workers", helped, rounds*(len(small.counts)+len(large.counts)))
}

// Join may be called from several goroutines at once — the consumer and a
// Settle or Close beside it: together they run every item once, and each
// returns only when the round is complete.
func TestTaskConcurrentJoins(t *testing.T) {
	atProcs(t, 2, 2)
	c := newTaskCounts(32)
	var task Task
	for r := 1; r <= 500; r++ {
		task.Post(32, c.body)
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				task.Join()
				for i := range c.counts {
					if got := int(c.counts[i].Load()); got != r {
						t.Errorf("round %d: a Join returned with item %d run %d times", r, i, got)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

// Post and Join allocate nothing, and posting a Task that is still in
// flight is a bug the package reports.
func TestTaskAllocsZeroAndDoublePostPanics(t *testing.T) {
	defer Set(Set(2))
	c := newTaskCounts(8)
	var task Task
	if allocs := testing.AllocsPerRun(100, func() {
		task.Post(8, c.body)
		task.Join()
	}); allocs != 0 {
		t.Errorf("a Post/Join round allocates %.1f objects, want 0", allocs)
	}
	task.Post(8, c.body)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Post on an unjoined Task did not panic")
			}
		}()
		task.Post(8, c.body)
	}()
	task.Join()
}
