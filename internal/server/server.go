package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"helmsim/internal/batch"
	"helmsim/internal/fault"
	"helmsim/internal/infer"
	"helmsim/internal/kvcache"
	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/serve"
	"helmsim/internal/units"
)

// Config describes a serving daemon.
type Config struct {
	// Model is the architecture served; every checkpoint opened by
	// OpenStore must match it.
	Model model.Config
	// OpenStore opens (and should CRC-verify) a fresh weight store. It is
	// called once at startup and once per hot reload; the returned closer
	// (nil allowed) runs once the last batcher built on the store stops.
	OpenStore func() (infer.WeightStore, io.Closer, error)
	// Workers is how many goroutines dequeue admitted requests, run the
	// pre-service shed checks (client gone, deadline, renege) and block
	// in the batcher until their request completes — the cap on requests
	// handed to the batcher at once. The default is Batch.MaxSeqs, enough
	// to fill every decode step; fewer leaves batch slots idle.
	Workers int
	// MaxQueue bounds the waiting line, the same serve.Admit bound as
	// serve.MixConfig's: an arrival finding MaxQueue requests waiting is
	// shed with 429 (default 64).
	MaxQueue int
	// MaxWait bounds queueing delay, the same serve.Renege bound as
	// serve.MixConfig's: a request that waited longer reneges with 503
	// when a worker finally reaches it (0 = unbounded patience).
	MaxWait time.Duration
	// MaxTokens caps per-request generation length (default 64).
	MaxTokens int
	// RequestTimeout is the server-side deadline per admitted request
	// (0 = none); clients may request a tighter one.
	RequestTimeout time.Duration
	// Retry is the foreground retry policy absorbing transient storage
	// faults under the engine.
	Retry infer.Retry
	// Breaker tunes the storage circuit breaker (zero values default).
	Breaker BreakerConfig
	// Batch sizes the serving core: the continuous batcher and its
	// paged KV cache.
	Batch BatchConfig
	// Cost tunes token-budget admission, per-class budgets, and
	// brownout overload control (zero value: count-only admission, no
	// brownout).
	Cost CostConfig
	// DrainRetryAfter is the Retry-After advertised on drain-mode 503s —
	// the /readyz readiness refusal and queue-closed admission sheds —
	// so probers and clients back off from a draining replica on the
	// same uniform contract breaker-open responses already follow
	// (default 1s).
	DrainRetryAfter time.Duration
	// OnStateChange, when non-nil, observes lifecycle transitions: it is
	// called with "draining" when admission stops and "stopped" once the
	// drain finalizes. A gateway fronting an in-process replica uses it
	// to pull the replica from rotation the moment its drain begins,
	// without waiting for the next readiness probe. Calls are
	// synchronous; the hook must not call back into the server.
	OnStateChange func(state string)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = c.Batch.withDefaults().MaxSeqs
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxTokens == 0 {
		c.MaxTokens = 64
	}
	if c.DrainRetryAfter == 0 {
		c.DrainRetryAfter = time.Second
	}
	c.Cost = c.Cost.withDefaults()
	return c
}

// Validate rejects unusable configurations (after defaulting).
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.OpenStore == nil {
		return fmt.Errorf("server: nil OpenStore")
	}
	// Before the worker count, whose default is the batch width.
	if err := c.Batch.Validate(); err != nil {
		return err
	}
	if c.Workers < 1 {
		return fmt.Errorf("server: worker count %d < 1", c.Workers)
	}
	if c.MaxQueue < 1 {
		return fmt.Errorf("server: queue bound %d < 1", c.MaxQueue)
	}
	if c.MaxWait < 0 {
		return fmt.Errorf("server: negative wait bound %v", c.MaxWait)
	}
	if c.MaxTokens < 1 {
		return fmt.Errorf("server: token cap %d < 1", c.MaxTokens)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("server: negative request timeout %v", c.RequestTimeout)
	}
	if c.DrainRetryAfter < 0 {
		return fmt.Errorf("server: negative drain retry-after %v", c.DrainRetryAfter)
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	return c.Breaker.Validate()
}

// lifecycle states.
const (
	stateServing int32 = iota
	stateDraining
	stateStopped
)

// job is one admitted-to-queue request, handed from the HTTP handler to
// a worker. The worker fills the result fields and closes done; the
// handler alone writes the HTTP response.
type job struct {
	ctx       context.Context
	prompt    []int
	maxTokens int
	timeout   time.Duration // client-requested, already clamped
	probe     bool          // breaker half-open probe
	arrived   time.Time
	class     serve.Class
	est       int // admission cost estimate in tokens (released once settled)

	tokens     []int
	err        error
	status     int // HTTP status to report err with
	retryAfter time.Duration
	generation int64
	queued     time.Duration
	service    time.Duration
	done       chan struct{}
}

// Server is the live daemon: admission control in front of one
// continuous batcher whose prefetched step engine — foreground retries
// included — reads a breaker-observed checkpoint generation.
type Server struct {
	cfg     Config
	breaker *Breaker

	// genCtx anchors the engine and every in-flight generation;
	// forceCancel fires when a drain deadline expires.
	genCtx      context.Context
	forceCancel context.CancelFunc

	mu      sync.Mutex
	state   int32
	queue   chan *job
	waiting int

	wg          sync.WaitGroup
	workersDone chan struct{}
	drainOnce   sync.Once
	drainDone   chan struct{} // closed after finalization; drainErr is set before
	drainErr    error

	// reloadMu serializes everything that installs a batcher: Reload
	// calls (concurrent SIGHUPs must not interleave their open/install
	// pairs) and the rebuild after a panicked step.
	reloadMu sync.Mutex

	// batchMu guards the active continuous batcher (nil once Drain tore
	// it down), the generation counts and every generation's refs; a hot
	// reload or a panicked step installs a successor. retiring counts
	// replaced batchers still finishing in-flight requests; Drain joins
	// them. Add happens under batchMu while bat is non-nil, so it never
	// races that Wait.
	batchMu  sync.Mutex
	bat      *batchState
	gens     int64 // generations installed
	retired  int64 // installed generations whose last batcher stopped
	retiring sync.WaitGroup

	// ledger is the conservation ledger, one serve.Ledger row per class
	// (guarded by mu): a request's arrival and its one bucket are
	// counted into its class's row, and /statz derives the global
	// ledger as the rows' sum.
	ledger [serve.NumClasses]serve.Ledger
	// The cost/brownout state behind the token-budget admission.
	cost        costState // guarded by mu
	classBudget [serve.NumClasses]int
	pred        *serve.Predictor

	served         atomic.Int64
	failed         atomic.Int64
	panics         atomic.Int64
	forceCancelled atomic.Int64
	reloads        atomic.Int64
	reloadFailures atomic.Int64
	badRequests    atomic.Int64

	storeAccesses   atomic.Int64
	storeTransients atomic.Int64
	prefetchHits    atomic.Int64
	prefetchMisses  atomic.Int64
	degraded        atomic.Int64
}

// breakerStore sits between the engine's loader and the batcher's
// generation: every raw storage attempt (including each retry) feeds
// the breaker's failure window and the access counters.
type breakerStore struct {
	s       *Server
	backing infer.WeightStore
}

func (bs breakerStore) Tensor(layer int, name string) ([]float32, error) {
	d, err := bs.backing.Tensor(layer, name)
	bs.record(err)
	return d, err
}

// record accounts one raw storage attempt.
func (bs breakerStore) record(err error) {
	bs.s.storeAccesses.Add(1)
	if err != nil && fault.IsTransient(err) {
		bs.s.storeTransients.Add(1)
	}
	bs.s.breaker.Record(err)
}

// TensorInto implements infer.IntoStore so the engines' buffer
// recycling survives the instrumentation layer; accounting is identical
// to Tensor.
func (bs breakerStore) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	is, ok := bs.backing.(infer.IntoStore)
	if !ok {
		return bs.Tensor(layer, name)
	}
	d, err := is.TensorInto(layer, name, dst)
	bs.record(err)
	return d, err
}

// TensorPacked implements infer.PackedStore so packed views survive the
// instrumentation layer too. A packed fetch is one storage attempt,
// accounted like any other; "no packed form" (ok false, nil error) read
// nothing, and the TensorInto the caller falls back to is the attempt
// that counts.
func (bs breakerStore) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	ps, ok := bs.backing.(infer.PackedStore)
	if !ok {
		return quant.Packed{}, false, nil
	}
	p, ok, err := ps.TensorPacked(layer, name)
	if ok || err != nil {
		bs.record(err)
	}
	return p, ok, err
}

// FileOpener is the OpenStore of a daemon serving the checkpoint file at
// path: every call — startup and each reload — opens it for pread and
// CRC-verifies every record before handing the store out. With faultRate
// above zero a fresh injector of that transient rate wraps each store,
// seeded faultSeed for the first and one more for each after, so reloads
// (and replicas sharing one opener) do not replay one fault sequence. The file is read, not mapped: a mapping of a file rewritten
// in place before the reload would fault the process.
func FileOpener(path string, faultRate float64, faultSeed int64) func() (infer.WeightStore, io.Closer, error) {
	var seed atomic.Int64
	seed.Store(faultSeed - 1)
	return func() (infer.WeightStore, io.Closer, error) {
		fs, err := infer.OpenFileStore(path)
		if err != nil {
			return nil, nil, err
		}
		if err := fs.Verify(); err != nil {
			fs.Close()
			return nil, nil, fmt.Errorf("checkpoint integrity: %w", err)
		}
		if faultRate <= 0 {
			return fs, fs, nil
		}
		flaky, err := fault.NewStore(fs, fault.Plan{Seed: seed.Add(1), TransientRate: faultRate})
		if err != nil {
			fs.Close()
			return nil, nil, err
		}
		return flaky, fs, nil
	}
}

// New opens the initial store via cfg.OpenStore, builds the batcher on
// it and starts the workers. ctx anchors the daemon: the engine, its
// prefetcher, and force-drain all descend from it.
func New(ctx context.Context, cfg Config) (*Server, error) {
	if ctx == nil {
		return nil, fmt.Errorf("server: nil context")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	br, err := NewBreaker(cfg.Breaker)
	if err != nil {
		return nil, err
	}
	w, closer, err := cfg.OpenStore()
	if err != nil {
		return nil, fmt.Errorf("server: opening initial store: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		breaker:     br,
		gens:        1,
		queue:       make(chan *job, cfg.MaxQueue),
		workersDone: make(chan struct{}),
		drainDone:   make(chan struct{}),
		classBudget: resolveClassBudgets(cfg.Cost.ClassBudgets),
		pred:        serve.NewPredictor(cfg.Cost.PredictorSeed),
	}
	s.cost.brown = (&serve.Brownout{
		Budget:  cfg.Cost.TokenBudget,
		High:    cfg.Cost.BrownoutHigh,
		Low:     cfg.Cost.BrownoutLow,
		Sustain: cfg.Cost.BrownoutSustain,
	}).Defaulted()
	s.genCtx, s.forceCancel = context.WithCancel(ctx)
	if s.bat, err = s.newBatchState(&generation{num: 1, store: w, closer: closer}); err != nil {
		s.forceCancel()
		if closer != nil {
			closer.Close()
		}
		return nil, fmt.Errorf("server: building continuous batcher: %w", err)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go func() {
		s.wg.Wait()
		close(s.workersDone)
	}()
	return s, nil
}

// admit runs serve.Admit under the lock — draining, page pressure,
// brownout, the cost budgets, the queue bound — and then the breaker,
// last because Allow hands out a half-open probe slot that a request
// shed by any earlier verdict must not consume. The arrival and any
// shed land in the class's ledger row in this one critical section. It
// returns the job on success, or (status, retryAfter, reason) on shed.
func (s *Server) admit(ctx context.Context, prompt []int, maxTokens int, timeout time.Duration, class serve.Class) (*job, int, time.Duration, string) {
	j := &job{
		ctx: ctx, prompt: prompt, maxTokens: maxTokens, timeout: timeout,
		arrived: time.Now(), done: make(chan struct{}),
		class: class, est: s.pred.EstimateCost(class, len(prompt), maxTokens),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	row := &s.ledger[class]
	row.Arrivals++
	b := serve.Admit(serve.AdmitState{
		Draining:     s.state != stateServing,
		PagesFit:     s.cfg.Batch.pagesForContext(len(prompt)+maxTokens) <= s.cfg.Batch.withDefaults().KVPages,
		Backlog:      s.cost.backlog,
		ClassBacklog: s.cost.classBacklog[class],
		Waiting:      s.waiting,
		TokenBudget:  s.cfg.Cost.TokenBudget,
		ClassBudget:  s.classBudget[class],
		MaxQueue:     s.cfg.MaxQueue,
		Brownout:     s.cost.brown,
	}, class, j.est)
	if b == serve.Admitted {
		var ok bool
		if j.probe, ok = s.breaker.Allow(); !ok {
			b = serve.ShedBreakerOpen
		}
	}
	if b != serve.Admitted {
		row.Buckets[b]++
		status, retryAfter, reason := s.shedReply(b, j)
		return nil, status, retryAfter, reason
	}
	s.waiting++
	s.cost.classWaiting[class]++
	s.cost.backlog += j.est
	s.cost.classBacklog[class] += j.est
	// Channel capacity equals the queue bound and waiting is tracked
	// under the same lock, so this send cannot block.
	s.queue <- j
	return j, 0, 0, ""
}

// shedReply is the one table from shed bucket to HTTP answer: status,
// Retry-After (0 for none) and the reason in the error body.
func (s *Server) shedReply(b serve.Bucket, j *job) (status int, retryAfter time.Duration, reason string) {
	waited := j.queued.Round(time.Millisecond)
	switch b {
	case serve.ShedDraining:
		// Queue-closed sheds carry the same Retry-After contract as
		// breaker-open ones: a prober or client that sees the header backs
		// off uniformly, whatever the daemon's reason for refusing.
		return http.StatusServiceUnavailable, s.cfg.DrainRetryAfter, "draining"
	case serve.ShedPagePressure:
		return http.StatusServiceUnavailable, 0, "context exceeds the paged KV budget"
	case serve.ShedBrownout:
		return http.StatusServiceUnavailable, s.cfg.Cost.BrownoutRetryAfter,
			fmt.Sprintf("brownout: %s class shed under sustained overload", j.class)
	case serve.ShedCostBudget:
		return http.StatusTooManyRequests, time.Second,
			fmt.Sprintf("estimated cost %d tokens exceeds the remaining %s or total token budget", j.est, j.class)
	case serve.ShedQueueFull:
		return http.StatusTooManyRequests, time.Second, "queue full"
	case serve.ShedBreakerOpen:
		return http.StatusServiceUnavailable, s.breaker.RetryAfter(), "storage circuit breaker open"
	case serve.ShedClientGone:
		return http.StatusServiceUnavailable, 0, fmt.Sprintf("server: client disconnected after queueing %v", waited)
	case serve.ShedDeadline:
		return http.StatusGatewayTimeout, 0, fmt.Sprintf("server: deadline passed after queueing %v; not started", waited)
	case serve.ShedMaxWait:
		return http.StatusServiceUnavailable, time.Second, fmt.Sprintf("server: reneged after queueing %v", waited)
	}
	return http.StatusInternalServerError, 0, fmt.Sprintf("server: no reply for admission verdict %v", b)
}

// worker hands admitted jobs to the batcher, one at a time, until the
// queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.serveJob(j)
		// The job settled one way or another: its admitted cost leaves
		// the backlog, and the brownout machine sees the drain.
		s.releaseCost(j)
		close(j.done)
	}
}

// seconds converts a wall-clock duration to serve's unit.
func seconds(d time.Duration) units.Duration { return units.Duration(d.Seconds()) }

// serveJob runs one dequeued job: serve.Renege (client gone, deadline,
// MaxWait), then the shared continuous batcher. A generation belongs
// to batchers, not requests: the batcher's engine was built on one
// generation, a hot reload installs a fresh batcher and retires this
// one in the background, and in-flight submissions finish on the
// generation they started on.
func (s *Server) serveJob(j *job) {
	j.queued = time.Since(j.arrived)
	b := serve.Renege(j.ctx.Err() != nil, seconds(j.queued), seconds(s.timeout(j)), seconds(s.cfg.MaxWait))
	s.mu.Lock()
	s.waiting--
	s.cost.classWaiting[j.class]--
	s.ledger[j.class].Buckets[b]++
	s.mu.Unlock()
	if b != serve.Admitted {
		if j.probe {
			s.breaker.ProbeAbort()
		}
		var reason string
		j.status, j.retryAfter, reason = s.shedReply(b, j)
		j.err = errors.New(reason)
		return
	}

	ctx, cancel := s.requestContext(j)
	// Force-drain reaches into in-flight generations through the daemon
	// context without parenting every request under it.
	stop := context.AfterFunc(s.genCtx, cancel)
	defer func() {
		stop()
		cancel()
	}()

	start := time.Now()
	var bs *batchState
	var tokens []int
	var err error
	// A hot reload may stop the batcher between our snapshot and our
	// Submit; the successor batcher serves the retry.
	for attempt := 0; ; attempt++ {
		bs = s.currentBatch()
		tokens, err = bs.b.SubmitClass(ctx, j.prompt, j.maxTokens, j.class)
		if !errors.Is(err, batch.ErrStopped) || attempt >= 2 {
			break
		}
	}
	j.service = time.Since(start)

	if err != nil {
		if errors.Is(err, batch.ErrPanicked) {
			s.replacePanicked(bs)
		}
		s.fail(j, err)
		if errors.Is(err, kvcache.ErrOutOfPages) {
			// Page pressure the admission predicate could not foresee
			// (competition, not request size). Conservation note: this
			// request was already counted admitted, so it stays in the
			// failed column, not a shed bucket.
			j.status = http.StatusServiceUnavailable
			j.retryAfter = time.Second
		}
		return
	}
	j.tokens = tokens
	j.generation = bs.g.num
	s.served.Add(1)
	if j.probe {
		s.breaker.ProbeDone(true)
	}
}

// timeout is j's effective deadline: the tighter of the server-side
// and the client-requested timeout (0 = none).
func (s *Server) timeout(j *job) time.Duration {
	timeout := s.cfg.RequestTimeout
	if j.timeout > 0 && (timeout == 0 || j.timeout < timeout) {
		timeout = j.timeout
	}
	return timeout
}

// requestContext derives the per-request context: the client's context,
// tightened by the server-side deadline and any (clamped) client-asked
// timeout.
func (s *Server) requestContext(j *job) (context.Context, context.CancelFunc) {
	if timeout := s.timeout(j); timeout > 0 {
		return context.WithTimeout(j.ctx, timeout)
	}
	return context.WithCancel(j.ctx)
}

// fail classifies an error into the job's response fields and settles
// breaker-probe accounting.
func (s *Server) fail(j *job, err error) {
	s.failed.Add(1)
	j.err = err
	switch {
	case s.genCtx.Err() != nil && errors.Is(err, context.Canceled):
		// Force-drain cut the request off.
		s.forceCancelled.Add(1)
		j.status = http.StatusServiceUnavailable
		j.retryAfter = time.Second
	case errors.Is(err, context.DeadlineExceeded):
		j.status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away mid-service; status is moot but recorded.
		j.status = http.StatusServiceUnavailable
	case fault.IsTransient(err):
		// Retries exhausted against sick storage.
		j.status = http.StatusServiceUnavailable
		j.retryAfter = s.breaker.RetryAfter()
	default:
		j.status = http.StatusInternalServerError
	}
	if j.probe {
		if fault.IsTransient(err) {
			s.breaker.ProbeDone(false)
		} else {
			// Timeouts, cancellations, panics: no storage verdict.
			s.breaker.ProbeAbort()
		}
	}
}

// Reload hot-swaps the served checkpoint: open + verify a fresh store,
// build a batcher on it, then install that batcher; the old batcher
// finishes its in-flight requests in the background — Reload does not
// wait for them — and the old generation closes after it stops. Later
// requests see the new one. A nil return means the new generation is
// serving; on error the new store is closed and the serving generation
// is unchanged.
func (s *Server) Reload() error {
	// Serialized so two reloads cannot interleave their open/install
	// pairs and number generations out of order.
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	w, closer, err := s.cfg.OpenStore()
	if err != nil {
		s.reloadFailures.Add(1)
		return fmt.Errorf("server: reload open: %w", err)
	}
	nbs, err := s.newBatchState(&generation{store: w, closer: closer})
	if err != nil {
		s.reloadFailures.Add(1)
		if closer != nil {
			closer.Close()
		}
		return fmt.Errorf("server: reload: building batcher: %w", err)
	}
	if err := s.install(nbs); err != nil {
		s.reloadFailures.Add(1)
		return fmt.Errorf("server: reload: %w", err)
	}
	s.reloads.Add(1)
	return nil
}

// Drain stops admission and waits for queued and in-flight requests to
// finish. When ctx expires first, in-flight generations are
// force-cancelled (counted in Stats.ForceCancelled) and the ctx error
// is returned. Drain is idempotent; concurrent calls all wait. Once
// workers exit every batcher stops, which closes every generation;
// Drain returns the final generation's close error if nothing else
// failed first.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	flipped := s.state == stateServing
	if flipped {
		s.state = stateDraining
		// Workers drain what was already admitted, then exit.
		close(s.queue)
	}
	s.mu.Unlock()
	// Only the caller that flipped the state notifies, so concurrent
	// drains deliver each transition exactly once.
	if flipped && s.cfg.OnStateChange != nil {
		s.cfg.OnStateChange("draining")
	}

	var derr error
	select {
	case <-s.workersDone:
		// Checked first so a drain that finished exactly at the deadline
		// still reports clean.
	default:
		select {
		case <-s.workersDone:
		case <-ctx.Done():
			s.forceCancel()
			<-s.workersDone
			derr = fmt.Errorf("server: drain deadline expired, in-flight requests cancelled: %w", ctx.Err())
		}
	}

	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.state = stateStopped
		s.mu.Unlock()
		s.forceCancel() // release context resources even on a clean drain
		// Workers have exited, so no submission can race the teardown;
		// batchers a reload retired may still be closing their engines,
		// and after a panicked-step rebuild one of them may be the last
		// on the final generation.
		s.batchMu.Lock()
		bs := s.bat
		s.bat = nil
		s.batchMu.Unlock()
		s.stopBatchState(bs)
		s.retiring.Wait()
		if derr == nil {
			derr = bs.g.closeErr
		}
		s.drainErr = derr
		if s.cfg.OnStateChange != nil {
			s.cfg.OnStateChange("stopped")
		}
		close(s.drainDone)
	})
	<-s.drainDone
	return s.drainErr
}

// Draining reports whether the daemon has left the serving state.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state != stateServing
}

// StatzSchemaVersion identifies the /statz JSON schema (the Stats
// struct, documented field by field in DESIGN.md §3i). It bumps
// whenever a field is renamed, removed, or changes meaning — additive
// fields do not bump it — so a prober can refuse a replica speaking an
// incompatible schema instead of misreading it.
//
// v4 itemizes every shed bucket in each class row (a serve.Ledger under
// "ledger") where v3 folded the class-blind ones into shed_other.
// Probers accept only the current version.
const StatzSchemaVersion = 4

// Stats is the /statz document. The machine-readable fields a fleet
// prober keys on — schema version, lifecycle state, checkpoint
// generation, queue depth, breaker state, and the batcher's
// generation — are top-level and stable; see DESIGN.md §3i for the
// schema contract.
type Stats struct {
	SchemaVersion      int    `json:"statz_version"`
	State              string `json:"state"`
	Draining           bool   `json:"draining"`
	Workers            int    `json:"workers"`
	QueueDepth         int    `json:"queue_depth"`
	Generation         int64  `json:"generation"`
	RetiredGenerations int64  `json:"retired_generations"`
	// BreakerState duplicates Breaker.State at top level so shallow
	// probers need not descend into the breaker snapshot.
	BreakerState string `json:"breaker_state"`
	// BatchGeneration is the checkpoint generation the active continuous
	// batcher was built on (0 after teardown). A reload installs the
	// generation and its batcher together, so while serving it equals
	// Generation.
	BatchGeneration int64 `json:"batch_generation"`

	Arrivals         int64 `json:"arrivals"`
	Admitted         int64 `json:"admitted"`
	Served           int64 `json:"served"`
	Failed           int64 `json:"failed"`
	ShedQueueFull    int64 `json:"shed_queue_full"`
	ShedMaxWait      int64 `json:"shed_max_wait"`
	ShedClientGone   int64 `json:"shed_client_gone"`
	ShedBreakerOpen  int64 `json:"shed_breaker_open"`
	ShedDraining     int64 `json:"shed_draining"`
	ShedPagePressure int64 `json:"shed_page_pressure"`
	ShedDeadline     int64 `json:"shed_deadline"`
	ShedBrownout     int64 `json:"shed_brownout"`
	ShedCostBudget   int64 `json:"shed_cost_budget"`
	BadRequests      int64 `json:"bad_requests"`
	Panics           int64 `json:"panics"`
	ForceCancelled   int64 `json:"force_cancelled"`
	Reloads          int64 `json:"reloads"`
	ReloadFailures   int64 `json:"reload_failures"`

	// CostBacklog is the admitted-but-unsettled estimated-token backlog
	// against TokenBudget; BrownoutLevel is the number of classes
	// currently rejected at admission (0 = no brownout). Together they
	// are the backpressure signal a fleet gateway routes and sheds on.
	CostBacklog     int64 `json:"cost_backlog"`
	TokenBudget     int   `json:"token_budget"`
	BrownoutLevel   int   `json:"brownout_level"`
	BrownoutEntries int64 `json:"brownout_entries"`
	BrownoutExits   int64 `json:"brownout_exits"`
	// Classes is the per-class admission ledger, one row per service
	// class; the global ledger above is the rows' sum.
	Classes []serve.ClassRow `json:"classes"`

	StoreAccesses   int64 `json:"store_accesses"`
	StoreTransients int64 `json:"store_transients"`
	PrefetchHits    int64 `json:"prefetch_hits"`
	PrefetchMisses  int64 `json:"prefetch_misses"`
	DegradedFetches int64 `json:"degraded_fetches"`

	Breaker BreakerSnapshot `json:"breaker"`
	// Batch is the continuous batcher's snapshot — occupancy, page
	// utilization, prefix-cache hit rate — present until teardown.
	Batch *batch.Stats `json:"batch,omitempty"`
}

// Conserved checks the live ledger: every class row conserves
// (serve.Ledger.Conserved), and the global ledger is the rows' sum —
// no request changes class or bucket between the two.
func (st Stats) Conserved() bool {
	var sum serve.Ledger
	for _, row := range st.Classes {
		if !row.Ledger.Conserved() {
			return false
		}
		sum.Add(row.Ledger)
	}
	return sum == serve.Ledger{Arrivals: st.Arrivals, Buckets: [serve.NumBuckets]int64{
		serve.Admitted:         st.Admitted,
		serve.ShedDraining:     st.ShedDraining,
		serve.ShedPagePressure: st.ShedPagePressure,
		serve.ShedBrownout:     st.ShedBrownout,
		serve.ShedCostBudget:   st.ShedCostBudget,
		serve.ShedQueueFull:    st.ShedQueueFull,
		serve.ShedBreakerOpen:  st.ShedBreakerOpen,
		serve.ShedClientGone:   st.ShedClientGone,
		serve.ShedDeadline:     st.ShedDeadline,
		serve.ShedMaxWait:      st.ShedMaxWait,
	}}
}

// Stats snapshots the daemon's counters. The ledger rows are copied in
// one critical section, but a request admitted to the queue is an
// arrival without a bucket until a worker takes it, so Conserved is
// guaranteed only at quiescence.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	state := s.state
	depth := s.waiting
	ledger := s.ledger
	cost := s.cost
	brownLevel := s.cost.brown.Level()
	brownEntries := s.cost.brown.Entries()
	brownExits := s.cost.brown.Exits()
	s.mu.Unlock()
	name := "serving"
	switch state {
	case stateDraining:
		name = "draining"
	case stateStopped:
		name = "stopped"
	}
	var total serve.Ledger
	for _, l := range ledger {
		total.Add(l)
	}
	classes := serve.ClassRows(ledger)
	for c := range classes {
		classes[c].QueueDepth = int64(cost.classWaiting[c])
		classes[c].CostBacklog = int64(cost.classBacklog[c])
	}
	var bst *batch.Stats
	var batchGen int64
	s.batchMu.Lock()
	if s.bat != nil {
		s.foldBatchPrefetch(s.bat)
		snap := s.bat.b.Stats()
		bst = &snap
		batchGen = s.bat.g.num
	}
	gens, retired := s.gens, s.retired
	s.batchMu.Unlock()
	return Stats{
		SchemaVersion:      StatzSchemaVersion,
		State:              name,
		Draining:           state != stateServing,
		Workers:            s.cfg.Workers,
		QueueDepth:         depth,
		Generation:         gens,
		RetiredGenerations: retired,
		BreakerState:       s.breaker.State().String(),
		BatchGeneration:    batchGen,
		Arrivals:           total.Arrivals,
		Admitted:           total.Buckets[serve.Admitted],
		Served:             s.served.Load(),
		Failed:             s.failed.Load(),
		ShedQueueFull:      total.Buckets[serve.ShedQueueFull],
		ShedMaxWait:        total.Buckets[serve.ShedMaxWait],
		ShedClientGone:     total.Buckets[serve.ShedClientGone],
		ShedBreakerOpen:    total.Buckets[serve.ShedBreakerOpen],
		ShedDraining:       total.Buckets[serve.ShedDraining],
		ShedPagePressure:   total.Buckets[serve.ShedPagePressure],
		ShedDeadline:       total.Buckets[serve.ShedDeadline],
		ShedBrownout:       total.Buckets[serve.ShedBrownout],
		ShedCostBudget:     total.Buckets[serve.ShedCostBudget],
		CostBacklog:        int64(cost.backlog),
		TokenBudget:        s.cfg.Cost.TokenBudget,
		BrownoutLevel:      brownLevel,
		BrownoutEntries:    brownEntries,
		BrownoutExits:      brownExits,
		Classes:            classes,
		BadRequests:        s.badRequests.Load(),
		Panics:             s.panics.Load(),
		ForceCancelled:     s.forceCancelled.Load(),
		Reloads:            s.reloads.Load(),
		ReloadFailures:     s.reloadFailures.Load(),
		StoreAccesses:      s.storeAccesses.Load(),
		StoreTransients:    s.storeTransients.Load(),
		PrefetchHits:       s.prefetchHits.Load(),
		PrefetchMisses:     s.prefetchMisses.Load(),
		DegradedFetches:    s.degraded.Load(),
		Breaker:            s.breaker.Snapshot(),
		Batch:              bst,
	}
}
