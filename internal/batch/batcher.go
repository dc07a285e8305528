// Package batch is the continuous (iteration-level) batcher: requests
// join and leave the running batch at step granularity instead of
// waiting for a fixed wave to drain. A fixed-membership batch holds a
// slot for a request's whole lifetime, so one long generation pins the
// wave while finished slots idle; here every decode step retires
// finished sequences, admits queued ones against the paged KV
// pool's free-page ledger by estimated cost (prompt plus the
// output-length predictor's decode bucket, when one is configured),
// and sheds pressure by preempting the lowest-class-youngest sequence
// (its tokens are requeued and its KV pages — still warm in the prefix
// index — are mostly recovered on re-admission).
//
// Scheduling is deterministic by construction: the queue is FIFO, the
// running set is a slice in admission order, and no map is ever
// iterated — the same submissions in the same order replay the same
// schedule, which the determinism analyzer enforces.
package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"helmsim/internal/infer"
	"helmsim/internal/kvcache"
	"helmsim/internal/serve"
	"helmsim/internal/tensor"
)

// ErrStopped rejects work submitted to a stopped batcher.
var ErrStopped = errors.New("batch: batcher stopped")

// ErrPanicked marks a step that panicked inside the engine or the store
// chain under it. Like any failed step it is not re-run: its running
// requests fail with this error and their pages return to the pool.
// The batcher keeps serving, but the engine's scratch and weight loader
// were abandoned mid-step, so an owner that can rebuild the engine
// should.
var ErrPanicked = errors.New("batch: step panicked")

// Options tunes a Batcher. Its queue has no bound of its own: the
// caller bounds what it submits (server.Config.MaxQueue, through
// serve.Admit's queue verdict).
type Options struct {
	// MaxSeqs caps concurrently running sequences per step (default 8).
	MaxSeqs int
	// Predictor, when set, tightens the page-pressure admission gate
	// from worst-case (maxNew tokens of decode) to the predictor's
	// output-length bucket: short-answer classes stop reserving pages
	// for generations they will never emit. Underprediction is safe —
	// a sequence that outgrows its estimate hits ErrOutOfPages and the
	// normal preemption path recovers, exactly as without a predictor.
	Predictor *serve.Predictor
}

func (o Options) withDefaults() Options {
	if o.MaxSeqs <= 0 {
		o.MaxSeqs = 8
	}
	return o
}

// result is one request's outcome.
type result struct {
	tokens []int
	err    error
}

// request is one queued generation.
type request struct {
	ctx    context.Context
	prompt []int // original prompt
	out    []int // tokens generated so far (non-empty after a preemption)
	maxNew int
	class  serve.Class
	ch     chan result // buffered(1); the loop delivers exactly once
}

// seqRun is one running sequence: a request bound to pool pages.
type seqRun struct {
	req       *request
	id        int // pool sequence ID for this admission
	pos       int // positions cached
	pending   []int
	tok       [1]int // backing array for pending during decode (reused per step)
	kv        []infer.KVBlock
	prefilled bool
}

// Stats is a batcher snapshot.
type Stats struct {
	Running   int `json:"running"`
	Queued    int `json:"queued"`
	Steps     int `json:"steps"`
	Admitted  int `json:"admitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Preemptions counts sequences evicted under page pressure and
	// requeued. Retries is always 0: a failed step is never re-run (the
	// engine's infer.Retry is the one storage retry). The field stays
	// because bench/stack.go reads it and bench/ is frozen.
	Preemptions int `json:"preemptions"`
	Retries     int `json:"retries"`
	// TokensOut counts delivered generated tokens.
	TokensOut int `json:"tokens_out"`
	// OccupancySum accumulates per-step active-sequence counts;
	// AvgOccupancy() is the continuous-batching payoff metric.
	OccupancySum int               `json:"occupancy_sum"`
	Pool         kvcache.PoolStats `json:"pool"`
}

// AvgOccupancy is mean active sequences per step (0 before any step).
func (s Stats) AvgOccupancy() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.OccupancySum) / float64(s.Steps)
}

// Batcher owns a StepEngine and a paged KV pool and runs the admission
// loop. Submit is safe for concurrent use; the engine and pool are
// touched only by the loop goroutine.
type Batcher struct {
	se   *infer.StepEngine
	pool *kvcache.Pool
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*request
	stopped bool
	stats   Stats

	// loop-owned; no locking
	running []*seqRun
	nextID  int
	// step scratch reused across steps (steady-state decode makes no
	// per-step slice allocations for the dispatch itself).
	seqScratch []infer.StepSeq
	seqPtrs    []*infer.StepSeq

	loopDone chan struct{}
}

// New starts a batcher over an iteration-level engine and a paged pool
// sized for the same model. The caller keeps ownership of the engine
// (Close it after Stop); the batcher owns the pool.
func New(se *infer.StepEngine, pool *kvcache.Pool, opts Options) *Batcher {
	b := &Batcher{
		se:       se,
		pool:     pool,
		opts:     opts.withDefaults(),
		loopDone: make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	go b.loop()
	return b
}

// Submit enqueues a prompt for maxNew greedy tokens and blocks until
// the generation completes, fails, or ctx is cancelled while the
// request is still waiting or running. The token stream is
// byte-identical to a solo single-request engine decoding the same
// prompt: per-sequence attention is independent, prefix-shared KV rows
// equal recomputed ones, and preempted sequences resume from their
// full token history.
func (b *Batcher) Submit(ctx context.Context, prompt []int, maxNew int) ([]int, error) {
	return b.SubmitClass(ctx, prompt, maxNew, serve.ClassInteractive)
}

// SubmitClass is Submit with an explicit request class. The class
// steers the cost-aware admission estimate and, under page pressure,
// the preemption order: the lowest class running is evicted first, so
// batch work yields pages to interactive work instead of the other way
// around. Scheduling stays FIFO — class never lets a request overtake
// the queue.
func (b *Batcher) SubmitClass(ctx context.Context, prompt []int, maxNew int, class serve.Class) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !class.Valid() {
		return nil, fmt.Errorf("batch: invalid request class %d", int(class))
	}
	if len(prompt) == 0 {
		return nil, fmt.Errorf("batch: empty prompt")
	}
	if maxNew <= 0 {
		return nil, fmt.Errorf("batch: non-positive generation length %d", maxNew)
	}
	if max := b.se.Config().MaxSeq; len(prompt)+maxNew > max {
		return nil, fmt.Errorf("batch: prompt %d + generation %d exceeds model max sequence %d", len(prompt), maxNew, max)
	}
	r := &request{ctx: ctx, prompt: prompt, maxNew: maxNew, class: class, ch: make(chan result, 1)}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return nil, ErrStopped
	}
	b.queue = append(b.queue, r)
	b.cond.Signal()
	b.mu.Unlock()
	res := <-r.ch
	return res.tokens, res.err
}

// Stop drains the batcher: no new submissions are accepted, queued and
// running requests run to completion, then the loop exits. Safe to
// call more than once.
func (b *Batcher) Stop() {
	b.mu.Lock()
	if !b.stopped {
		b.stopped = true
		b.cond.Signal()
	}
	b.mu.Unlock()
	<-b.loopDone
}

// Stats snapshots the batcher. Pool fields are refreshed at step
// boundaries, queue and counter fields are live.
func (b *Batcher) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.Queued = len(b.queue)
	return s
}

// deliver completes a request exactly once (the channel is buffered).
func deliver(r *request, tokens []int, err error) {
	r.ch <- result{tokens: tokens, err: err}
}

// loop is the scheduler: admit, step, retire, repeat.
func (b *Batcher) loop() {
	defer close(b.loopDone)
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && len(b.running) == 0 && !b.stopped {
			b.cond.Wait()
		}
		if b.stopped && len(b.queue) == 0 && len(b.running) == 0 {
			b.mu.Unlock()
			return
		}
		b.admitLocked()
		b.mu.Unlock()

		if len(b.running) == 0 {
			// Every waiter was cancelled or failed during admission;
			// park until new work arrives.
			continue
		}

		b.step()

		b.mu.Lock()
		b.stats.Running = len(b.running)
		b.stats.Pool = b.pool.Stats()
		b.mu.Unlock()
	}
}

// admitLocked moves queued requests into the running set while slots
// and pages allow. Cancelled waiters are failed in place. Called with
// b.mu held; pool access is safe because only the loop runs here.
func (b *Batcher) admitLocked() {
	kept := b.queue[:0]
	for qi, r := range b.queue {
		if err := r.ctx.Err(); err != nil {
			deliver(r, r.out, err)
			b.stats.Failed++
			continue
		}
		if len(b.running) >= b.opts.MaxSeqs {
			kept = append(kept, r)
			continue
		}
		// A preempted request resumes from its full history: the prompt
		// plus everything already generated, usually still warm in the
		// prefix index.
		admitPrompt := r.prompt
		if len(r.out) > 0 {
			admitPrompt = append(append([]int(nil), r.prompt...), r.out...)
		}
		// Page-pressure gate: with other sequences running, hold a
		// request back until the pool could cover its estimated cost —
		// the whole prompt plus the predicted remaining decode (worst
		// case the full maxNew remainder, the predictor's bucket when
		// one is configured) — even with zero prefix reuse. Without the
		// gate a preempted request re-admits immediately, fails the next
		// step's allocation, and is preempted again — a livelock. The
		// gate is conservative (prefix sharing only reduces real need),
		// and it never blocks an empty batch: a lone sequence must run
		// so the pool can evict cached prefixes on its behalf. Admission
		// stays FIFO — nothing overtakes a held-back head, or a large
		// request starves forever.
		if len(b.running) > 0 && b.pool.PagesFor(len(admitPrompt)+b.estDecode(r)) > b.pool.FreePages() {
			// Keep the held-back head AND everything behind it: the break
			// skips the rest of the loop, so they must be carried over
			// here or the compaction below would silently drop them and
			// their submitters would wait forever. copy semantics make the
			// overlapping append safe (len(kept) <= qi always).
			kept = append(kept, b.queue[qi:]...)
			break
		}
		id := b.nextID
		shared, err := b.pool.Admit(id, admitPrompt)
		if err != nil {
			deliver(r, r.out, err)
			b.stats.Failed++
			continue
		}
		b.nextID++
		kv := make([]infer.KVBlock, b.se.Config().Blocks)
		for blk := range kv {
			kv[blk] = b.pool.View(id, blk, shared)
		}
		b.running = append(b.running, &seqRun{
			req:     r,
			id:      id,
			pos:     shared,
			pending: admitPrompt[shared:],
			kv:      kv,
		})
		b.stats.Admitted++
	}
	// Anything after a page-pressure break stays queued, in order.
	if len(kept) < len(b.queue) {
		n := copy(b.queue, kept)
		rest := b.queue[n:]
		for i := range rest {
			rest[i] = nil
		}
		b.queue = b.queue[:len(kept)]
	} else {
		b.queue = kept
	}
}

// estDecode is the admission estimate of how many more tokens r will
// generate: the worst-case remainder of its cap, tightened by the
// predictor's class bucket when one is configured, and never below 1
// (every admitted request decodes at least once).
func (b *Batcher) estDecode(r *request) int {
	est := r.maxNew - len(r.out)
	if b.opts.Predictor != nil {
		if p := b.opts.Predictor.PredictDecode(r.class, len(r.prompt), r.maxNew) - len(r.out); p < est {
			est = p
		}
	}
	if est < 1 {
		est = 1
	}
	return est
}

// buildStep fills the batcher's reusable step scratch from the current
// running set (rebuilt after a preemption changes membership).
func (b *Batcher) buildStep() []*infer.StepSeq {
	if cap(b.seqScratch) < len(b.running) {
		b.seqScratch = make([]infer.StepSeq, len(b.running))
		b.seqPtrs = make([]*infer.StepSeq, len(b.running))
	}
	seqs := b.seqPtrs[:len(b.running)]
	for i, s := range b.running {
		b.seqScratch[i] = infer.StepSeq{Tokens: s.pending, Pos: s.pos, KV: s.kv}
		seqs[i] = &b.seqScratch[i]
	}
	return seqs
}

// engineStep is the recovery boundary around one engine step: a panic
// below it (kernel, store chain, injected fault) fails that step's
// requests, not the process.
func (b *Batcher) engineStep(seqs []*infer.StepSeq) (logits []tensor.Mat, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrPanicked, r)
		}
	}()
	return b.se.Step(seqs)
}

// step advances every running sequence one iteration, handling
// page-pressure preemption, retirement, and cancellation. A step that
// fails for any other reason — a storage fault the engine's Retry did
// not absorb, a panic — is not re-run: its running requests fail at
// once, after the pool is rolled back.
func (b *Batcher) step() {
	// Cancelled running sequences leave before the step.
	b.retireCancelled()
	if len(b.running) == 0 {
		return
	}

	seqs := b.buildStep()
	logits, err := b.engineStep(seqs)
	for err != nil {
		// The step rolled every view back to its pre-step length; free
		// the pages the aborted step had claimed so the ledger reflects
		// committed state only.
		for _, s := range b.running {
			if rbErr := b.pool.Rollback(s.id, s.pos); rbErr != nil {
				b.failAllRunning(fmt.Errorf("batch: rollback after failed step: %w", rbErr))
				return
			}
		}
		if !errors.Is(err, kvcache.ErrOutOfPages) {
			b.failAllRunning(err)
			return
		}
		if !b.preemptLowestYoungest() {
			// A lone sequence that cannot grow even after the pool
			// evicted every cached prefix will never fit.
			b.failAllRunning(err)
			return
		}
		if len(b.running) == 0 {
			return
		}
		seqs = b.buildStep()
		logits, err = b.engineStep(seqs)
	}

	// Every running sequence emits one token this step, and the ones that
	// reach their cap finish. The counters are committed before any
	// result is delivered, so a submitter that reads Stats as soon as its
	// Submit returns already sees its own completion.
	finished := 0
	for _, s := range b.running {
		if len(s.req.out)+1 >= s.req.maxNew {
			finished++
		}
	}
	b.mu.Lock()
	b.stats.Steps++
	b.stats.OccupancySum += len(seqs)
	b.stats.TokensOut += len(b.running)
	b.stats.Completed += finished
	b.mu.Unlock()

	// Commit: advance positions, sample, retire finished sequences.
	kept := b.running[:0]
	for i, s := range b.running {
		s.pos += len(s.pending)
		if !s.prefilled {
			s.prefilled = true
			// Publishing the prompt pages makes later prompts sharing
			// the prefix skip recomputing it. Best effort: a full index
			// is not a step failure.
			_ = b.pool.RegisterPrefix(s.id)
		}
		next := logits[i].ArgmaxRow(0)
		s.req.out = append(s.req.out, next)
		if len(s.req.out) >= s.req.maxNew {
			if err := b.pool.Release(s.id); err != nil {
				b.mu.Lock()
				b.stats.Failed++
				b.mu.Unlock()
				deliver(s.req, s.req.out, fmt.Errorf("batch: releasing finished sequence: %w", err))
				continue
			}
			deliver(s.req, s.req.out, nil)
			continue
		}
		s.tok[0] = next
		s.pending = s.tok[:]
		kept = append(kept, s)
	}
	for i := len(kept); i < len(b.running); i++ {
		b.running[i] = nil
	}
	b.running = kept
}

// retireCancelled releases running sequences whose contexts ended.
func (b *Batcher) retireCancelled() {
	kept := b.running[:0]
	var failed int
	for _, s := range b.running {
		if err := s.req.ctx.Err(); err != nil {
			_ = b.pool.Release(s.id)
			deliver(s.req, s.req.out, err)
			failed++
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(b.running); i++ {
		b.running[i] = nil
	}
	b.running = kept
	if failed > 0 {
		b.mu.Lock()
		b.stats.Failed += failed
		b.mu.Unlock()
	}
}

// preemptLowestYoungest evicts the most recently admitted sequence of
// the lowest class running and requeues it at the head of the queue
// (it outranks every waiter). Class orders eviction — batch yields
// before rag, rag before interactive — and recency breaks ties within
// the class: the youngest has the least sunk work and the warmest
// prefix, so its pages return to the pool at the smallest replay cost.
// Its token history — prompt plus generated — re-enters through Admit,
// where the prefix index usually recovers most of the KV without
// recomputation. It reports false when no preemption is possible (one
// or zero running sequences: evicting the only grower frees nothing it
// can use).
func (b *Batcher) preemptLowestYoungest() bool {
	if len(b.running) <= 1 {
		return false
	}
	vi := 0
	for i, s := range b.running {
		if s.req.class <= b.running[vi].req.class {
			vi = i
		}
	}
	victim := b.running[vi]
	copy(b.running[vi:], b.running[vi+1:])
	b.running[len(b.running)-1] = nil
	b.running = b.running[:len(b.running)-1]
	if err := b.pool.Release(victim.id); err != nil {
		deliver(victim.req, victim.req.out, fmt.Errorf("batch: releasing preempted sequence: %w", err))
		b.mu.Lock()
		b.stats.Failed++
		b.mu.Unlock()
		return true
	}
	b.mu.Lock()
	b.queue = append(b.queue, nil)
	copy(b.queue[1:], b.queue)
	b.queue[0] = victim.req
	b.stats.Preemptions++
	b.mu.Unlock()
	return true
}

// failAllRunning fails every running request with err and releases
// their pages, counting them before the delivery like a step's
// completions.
func (b *Batcher) failAllRunning(err error) {
	b.mu.Lock()
	b.stats.Failed += len(b.running)
	b.mu.Unlock()
	for i, s := range b.running {
		_ = b.pool.Release(s.id)
		deliver(s.req, s.req.out, err)
		b.running[i] = nil
	}
	b.running = b.running[:0]
}
