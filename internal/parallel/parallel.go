// Package parallel is the shared fork-join the executable engine's
// compute kernels run on: internal/tensor's matmuls/norms/activations,
// internal/quant's group dequantization and internal/infer's attention
// core all split their index spaces over one process-wide set of
// long-lived workers, so no kernel call ever spawns goroutines of its own.
//
// The contract that makes parallel execution safe to adopt everywhere is
// determinism: For splits [0, n) into contiguous chunks and every index
// belongs to exactly one chunk, so a kernel whose chunk body performs the
// same per-index arithmetic as its serial loop produces bit-identical
// output at any worker count, whichever goroutine ends up running which
// chunk. The worker count is a process-wide knob (Set/N, surfaced as
// tensor.SetParallelism) defaulting to GOMAXPROCS.
//
// Dispatch is built for forks as short as a 40 µs decode GEMV, where a
// thread wake-up costs more than the work it would take over:
//
//   - Self-scheduled. A fork publishes one job descriptor — body, range,
//     chunk size, a count of unclaimed chunks and a count of unfinished
//     ones — in the pool's single slot. The caller and every hot worker
//     claim chunks off the first count until it runs out, and the caller
//     returns when the second reaches zero. The caller therefore never
//     waits for a worker that has not started: a parked, late or
//     descheduled worker costs nothing, the caller simply runs the whole
//     range; it only ever waits for a chunk some worker is in the middle
//     of. There are more chunks than workers, so a worker that joins late
//     still finds work and an uneven pair of cores still ends together.
//   - Hot, bounded. After its last chunk a worker keeps polling the slot
//     for hotPolls iterations before it parks on the wake channel, so a
//     decode step — a stream of forks a few microseconds apart — is
//     served by a worker that never sleeps, while a process that stops
//     forking has every worker parked one budget later. A fork that finds
//     workers parked signals them without blocking. At most
//     GOMAXPROCS-1 workers are ever woken, whatever Set says.
//   - Inline when busy. One slot means one fork in flight. A caller that
//     finds it taken — a second engine, a dequantization inside a
//     background item beside the engine's GEMM, a For inside a For body —
//     runs its range on its own goroutine: two callers on two cores are
//     already parallel, and a nested call cannot wait on the pool it runs
//     on.
//   - Allocation-free. The descriptor is the slot itself, reused by every
//     fork; For allocates nothing. (Whether the body does is the caller's
//     business: a func literal that captures variables is heap-allocated
//     where it is built once it is handed to For, so kernels on the
//     engine's decode path pass a func value they built once.)
//
// Beside that foreground slot the pool has one background slot, for work
// that is worth overlapping with the forks but that nothing waits for
// yet: the engine's next-layer weight fetch. A Task is n items and a body;
// Post publishes it, Join returns once every item has run exactly once.
// Its rules are the fork's, turned around so the background never costs
// the foreground anything:
//
//   - Posting wakes nobody and never blocks. Post is a few stores: no
//     signal, no worker started. A parked worker stays parked, and a
//     process whose forks never leave the calling goroutine (a model too
//     small to split, one processor, Set(1)) runs every item on the owner
//     at Join, at the cost of the plain loop.
//   - Foreground first. A hot worker looks at the background slot only
//     when no chunk is waiting, takes one item, then looks for chunks
//     again: a fork never finds the workers more than one item away, and
//     since its caller self-schedules it does not wait even for that.
//   - Join is work. The owner claims the items nobody has taken and runs
//     them itself; it waits only for items a worker is in the middle of.
//   - One slot. A second poster (two engines share the pool) displaces
//     the pointer; the displaced task is finished by its owner at Join —
//     inline when busy, again.
//   - Allocation-free, clock-free, reusable. The caller owns the
//     descriptor and may Post it again as soon as Join has returned: a
//     worker reads a Task's fields only under an item it has claimed, and
//     Join does not return while a claimed item is unfinished.
//
// An item body must recover its own panics: on a pool worker nothing else
// can.
package parallel

import (
	"runtime"
	"sync/atomic"
)

// The constants below were sized with BenchmarkForkJoin (its table is in
// EXPERIMENTS.md, "fork thresholds"). A fork to a hot worker costs the
// caller far less than it saves; a fork that must wake its worker pays
// for the signal and then waits for a late arrival's chunk, so it can
// cost more than the serial loop — which is why workers stay hot across a
// step, and why the caller at least never waits for one that has not
// arrived at all.
const (
	// chunksPerWorker is how many chunks a fork cuts per configured
	// worker when the grain allows. One per worker makes the slower of
	// two cores the critical path; two lets whichever finishes first take
	// the remainder, and gives a worker that arrives late something to
	// find. A claim is one atomic add.
	chunksPerWorker = 2

	// hotPolls is how many times an idle worker polls the slot before it
	// parks: a budget counted in polls, not wall time, so nothing in this
	// package reads a clock. A poll is one atomic load, 0.7–1.0 ns
	// (BenchmarkForkJoin/poll), which makes the budget 20–30 µs — the
	// order of one park/unpark round trip (the table's last column).
	// Long enough to ride out the serial stretches inside a decode step
	// (norms, bias adds, KV append: a few µs each); short enough that a
	// worker is off its processor before the goroutines waiting for one
	// notice — at 400 µs the two-replica fleet workload's median reply
	// time rose by two thirds.
	hotPolls = 30000

	// flightCheck is how often, in polls, an idle worker looks at the slot
	// state to see whether a fork is in flight. The owner writes that
	// cache line three times per fork; a worker reading it on every poll
	// pulled it away between those writes and made an empty fork cost the
	// caller 0.93 µs instead of 0.59.
	flightCheck = 1024

	// flightWeight stretches the hot budget while a fork is in flight:
	// those polls count one in flightWeight, so a worker waits ~8 budgets
	// (~200 µs) for the caller's last chunk — every decode-sized chunk —
	// but not without bound: a caller descheduled mid-fork on a busy host
	// must get the processor back from it, and behind a prefill-sized
	// chunk (milliseconds) one wake-up is noise.
	flightWeight = 8

	// waitPolls is how long the caller polls for in-flight chunks before
	// it starts yielding the processor between polls.
	waitPolls = 2000

	// taskCheck is how often, in polls, an idle worker looks at the
	// background slot: one pointer load per 64 polls (~50 ns), which is
	// as long as a posted item waits for a worker that has nothing else
	// to do. It divides flightCheck, so the idle loop still tests one
	// counter per poll and stays at its 0.7–1.0 ns (a second test per
	// poll read 1.17 ns, which would have stretched the hot budget by
	// half).
	taskCheck = 64

	// maxSpawn bounds the worker count against pathological Set values.
	maxSpawn = 256
)

// The flight check rides on the task check's counter test.
const _ uint = -(flightCheck % taskCheck)

var workers atomic.Int32

func init() { workers.Store(int32(runtime.GOMAXPROCS(0))) }

// Set configures the worker count used by For; n <= 0 resets to
// GOMAXPROCS. It returns the previous setting so callers can restore it.
func Set(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(workers.Swap(int32(n)))
}

// N reports the configured worker count.
func N() int { return int(workers.Load()) }

// Slot states, the high bits of pool.state; the low 32 bits count the
// workers currently inside the job. The slot is free only at zero, so a
// worker that lingers inside a finished job (it has no chunk, it just
// has not left yet) keeps the descriptor from being rewritten under it;
// the owner's join waits for it to leave before freeing the slot.
const (
	slotOwned = 1 << 33 // a caller holds the descriptor
	slotOpen  = 1 << 32 // ... and has published it: workers may enter
)

// pool is one fork-join: the job slot, the workers serving it and the
// channel they park on. The package runs on one shared instance.
type pool struct {
	state   atomic.Uint64 // slotOwned | slotOpen | workers inside
	pending atomic.Int32  // chunks not yet finished
	// The descriptor proper: written by the slot's owner before slotOpen
	// is set, read by workers only between entering and leaving.
	body            func(lo, hi int)
	n, size, chunks int

	_ [64]byte // idle workers poll unclaimed; keep the owner's writes above off its line

	unclaimed atomic.Int32 // chunks nobody has taken yet (<= 0: none)

	_ [64]byte

	task atomic.Pointer[Task] // the background slot: the latest posted, unjoined Task

	_ [64]byte

	spawned atomic.Int32  // worker goroutines started; grown by the slot's owner only
	parked  atomic.Int32  // workers on (or headed for) the wake channel and not yet signalled
	wake    chan struct{} // one token per signalled worker; capacity maxSpawn, so a send never blocks
}

var shared = newPool()

func newPool() *pool { return &pool{wake: make(chan struct{}, maxSpawn)} }

// For runs body over contiguous chunks of [0, n) — at most
// chunksPerWorker*N() of them, each at least grain indices long (so
// small inputs stay on the calling goroutine with zero synchronization)
// — and returns when every index has been covered exactly once. The
// caller's goroutine works through the chunks itself, sharing them with
// whichever pool workers are awake; see the package comment for the
// dispatch. For does not allocate.
//
// body may call For: while a fork is in flight — this one included —
// every other For runs inline on its caller. If body panics on the
// calling goroutine the fork is retired (its remaining chunks dropped,
// chunks already running elsewhere joined) before the panic continues; a
// panic on a pool worker is fatal to the process, as any unrecovered
// goroutine panic is.
func For(n, grain int, body func(lo, hi int)) { shared.run(n, grain, body) }

// MaxChunks is the most chunks For cuts a range into at the current
// worker count: 1 at one worker, where every range runs inline. For(n,
// 1, body) with n <= MaxChunks() runs each index as a chunk of its own,
// so a caller can size one piece of scratch per chunk before it forks.
func MaxChunks() int {
	if w := N(); w > 1 {
		return chunksPerWorker * w
	}
	return 1
}

func (p *pool) run(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := min(MaxChunks(), n/max(grain, 1))
	if chunks <= 1 || !p.state.CompareAndSwap(0, slotOwned) {
		body(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	p.body, p.n, p.size, p.chunks = body, n, size, chunks
	p.pending.Store(int32(chunks))
	p.state.Store(slotOwned | slotOpen)
	p.unclaimed.Store(int32(chunks))
	p.rouse()

	finished := false
	defer func() {
		if !finished {
			p.abandon()
		}
	}()
	p.work()
	p.join()
	finished = true
}

// join waits for the chunks other goroutines are still running, closes
// the slot, waits for every worker still inside it to leave, and only
// then frees it. A worker that found no chunk left may linger inside a
// finished fork for a moment; a slot freed before it leaves is not yet
// free (state is not zero), and the caller's next fork — a stacked
// decode step is a run of them a few microseconds apart — would find it
// taken and run its whole range inline. Once slotOpen is clear no worker
// can enter, so the wait is for workers already on their way out.
func (p *pool) join() {
	for polls := 0; p.pending.Load() > 0; polls++ {
		if polls >= waitPolls {
			runtime.Gosched()
		}
	}
	p.body = nil
	p.state.Add(^uint64(slotOpen) + 1)
	for polls := 0; p.state.Load() != slotOwned; polls++ {
		if polls >= waitPolls {
			runtime.Gosched()
		}
	}
	p.state.Store(0)
}

// abandon retires a fork whose body panicked on the calling goroutine:
// the chunks nobody has claimed are dropped, the panicking chunk is
// counted finished, and the slot is freed once the workers' chunks are.
func (p *pool) abandon() {
	for p.unclaimed.Add(-1) >= 0 {
		p.pending.Add(-1)
	}
	p.pending.Add(-1)
	p.join()
}

// work claims and runs chunks until none are left. The caller must own
// the slot or have entered it. The descriptor is read only under a
// claimed chunk: until that chunk is counted finished the owner cannot
// get past join, so nothing rewrites the fields meanwhile.
func (p *pool) work() {
	for {
		c := int(p.unclaimed.Add(-1))
		if c < 0 {
			return
		}
		lo := (p.chunks - 1 - c) * p.size
		p.body(lo, min(lo+p.size, p.n))
		p.pending.Add(-1)
	}
}

// rouse brings the number of hot workers up to what the configured
// worker count and GOMAXPROCS allow, signalling parked workers first and
// starting new ones when there are none to signal. Only the slot's owner
// calls it, so spawned has one writer. It never blocks.
func (p *pool) rouse() {
	spawned := p.spawned.Load()
	if p.parked.Load() == 0 && int(spawned) >= N()-1 {
		return // everyone who could help is already polling
	}
	want := int32(min(N(), runtime.GOMAXPROCS(0), maxSpawn+1) - 1)
	for {
		idle := p.parked.Load()
		if spawned-idle >= want {
			return
		}
		if idle == 0 {
			spawned = p.spawned.Add(1)
			go p.worker()
		} else if p.parked.CompareAndSwap(idle, idle-1) {
			p.wake <- struct{}{}
		}
	}
}

// worker is the life of one pool goroutine: serve the slot while it
// keeps filling, park when it has stayed empty for hotPolls polls. Polls
// made while a fork is in flight — its last chunks running elsewhere —
// count 1/flightWeight: that fork's caller is about to issue the next
// one, and a worker that parked behind every uneven split would miss it.
// With no chunk waiting it takes one item of the posted Task, if there is
// one, and then looks for chunks again.
func (p *pool) worker() {
	for {
		for idle := 0; idle < hotPolls; idle++ {
			if p.unclaimed.Load() <= 0 {
				if idle%taskCheck != taskCheck-1 {
					continue
				}
				if t := p.task.Load(); t != nil && t.help() {
					idle = 0
				} else if idle%flightCheck == flightCheck-1 && p.state.Load() != 0 {
					idle -= flightCheck - flightCheck/flightWeight
				}
				continue
			}
			if s := p.state.Load(); s&slotOpen != 0 && p.state.CompareAndSwap(s, s+1) {
				p.work()
				p.state.Add(^uint64(0))
				idle = 0
			}
		}
		p.parked.Add(1)
		<-p.wake
	}
}

// Task is a detached fork: n items and a body, each item run exactly
// once — by a pool worker that had no chunk to run, or by the goroutine
// that calls Join. The zero Task is ready to Post; the descriptor is the
// caller's and is meant to be reused, one Post/Join round after another.
// A Task must not be copied after first use.
//
// Nothing is read from a Task but its counters except under a claimed
// item, and Join outlasts every claimed item, so a worker that still
// holds a pointer to a joined Task — or to one that has since been posted
// again — either claims nothing or claims an item of the round it finds.
type Task struct {
	body func(i int)
	n    int

	left    atomic.Int32 // items nobody has taken yet (<= 0: none)
	pending atomic.Int32 // items not yet finished
	helped  atomic.Int32 // items pool workers ran this round
}

// Post publishes n items of body on the shared pool's background slot
// and returns at once: it wakes no worker and starts none. Items run in
// index order as they are claimed, body(i) once for every i in [0, n).
// body must recover its own panics. Every Post is followed by a Join
// before the Task is posted again; Post panics on a Task still in flight.
func (t *Task) Post(n int, body func(i int)) { shared.post(t, n, body) }

func (p *pool) post(t *Task, n int, body func(i int)) {
	if t.pending.Load() != 0 {
		panic("parallel: Post on a Task that has not been joined")
	}
	if n <= 0 {
		return
	}
	t.body, t.n = body, n
	t.helped.Store(0)
	t.pending.Store(int32(n))
	t.left.Store(int32(n))
	if N() > 1 {
		p.task.Store(t)
	}
}

// Join runs the items nobody has claimed on the calling goroutine, waits
// for the ones pool workers are in the middle of, and reports how many
// of the round's items workers ran. It may be called from several
// goroutines at once and on a Task that was never posted; it returns
// only when the round is complete.
func (t *Task) Join() (byWorkers int) { return shared.finish(t) }

func (p *pool) finish(t *Task) (byWorkers int) {
	for i, ok := t.claim(); ok; i, ok = t.claim() {
		t.body(i)
		t.pending.Add(-1)
	}
	p.task.CompareAndSwap(t, nil)
	for polls := 0; t.pending.Load() > 0; polls++ {
		if polls >= waitPolls {
			runtime.Gosched()
		}
	}
	return int(t.helped.Load())
}

// claim takes the next unclaimed item, if any is left.
func (t *Task) claim() (i int, ok bool) {
	if t.left.Load() <= 0 {
		return 0, false
	}
	c := int(t.left.Add(-1))
	if c < 0 {
		return 0, false
	}
	return t.n - 1 - c, true
}

// help runs one item on a pool worker and reports whether there was one.
func (t *Task) help() bool {
	i, ok := t.claim()
	if !ok {
		return false
	}
	t.body(i)
	t.helped.Add(1)
	t.pending.Add(-1)
	return true
}
