package parallel

import (
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
