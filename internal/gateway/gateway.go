// Package gateway is the fleet front end over N serving replicas: a
// stdlib-only HTTP gateway routing generate requests across helmd
// daemons (remote URLs or in-process server.Server instances) with
// pluggable routing, per-replica health probing and circuit breaking,
// bounded failover retries, and administrative drain-out of replicas.
//
// Robustness is the contract, lifted from the per-replica guarantees
// the daemon already enforces to fleet level: a replica can crash,
// hot-reload, brown out, or drain without a single client-visible
// failure, because generate requests are idempotent — the engine is
// deterministic, so re-running a request on a different replica over
// the same checkpoint yields byte-identical tokens — and the gateway
// retries a transiently failed forward on a different healthy replica,
// never the one that just failed. The fleet ledger conserves: every
// arrival is finalized by exactly one replica or lands in exactly one
// gateway shed bucket (FleetStats.Conserved), composing with each
// replica's own admission ledger (server.Stats.Conserved).
package gateway

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"helmsim/internal/infer"
	"helmsim/internal/serve"
	"helmsim/internal/server"
)

// Config describes a gateway.
type Config struct {
	// Backends are the replicas fronted (at least one; names unique).
	Backends []BackendConfig
	// Route names the routing algorithm: round-robin (default),
	// least-load, or weighted.
	Route string
	// MaxFailovers bounds retries of a failed forward onto other
	// replicas: a request is attempted on at most 1+MaxFailovers
	// distinct replicas (default: len(Backends)-1 — every other replica
	// gets one chance; negative disables failover entirely).
	MaxFailovers int
	// ForwardTimeout is the per-attempt deadline for one replica
	// forward (default 30s). The client's own context still applies.
	ForwardTimeout time.Duration
	// Backoff paces failover retries (1-based attempt); nil uses the
	// engine's deterministic infer.DefaultBackoff.
	Backoff func(attempt int) time.Duration
	// Sleep is the injectable clock for failover pacing; nil uses
	// time.Sleep.
	Sleep func(time.Duration)
	// Probe tunes health probing.
	Probe ProbeConfig
	// DrainRetryAfter is the Retry-After advertised on gateway-draining
	// and no-healthy-backend 503s (default 1s).
	DrainRetryAfter time.Duration
	// BrownoutRetryAfter is the Retry-After advertised on fleet-level
	// brownout sheds (default 2s, matching the replica daemon's own
	// brownout contract).
	BrownoutRetryAfter time.Duration
	// Now is the injectable wall clock for probe bookkeeping; nil uses
	// time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Route == "" {
		c.Route = RouteRoundRobin
	}
	if c.MaxFailovers == 0 {
		c.MaxFailovers = len(c.Backends) - 1
	}
	if c.MaxFailovers < 0 {
		c.MaxFailovers = 0
	}
	if c.ForwardTimeout == 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.Backoff == nil {
		c.Backoff = infer.DefaultBackoff
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.DrainRetryAfter == 0 {
		c.DrainRetryAfter = time.Second
	}
	if c.BrownoutRetryAfter == 0 {
		c.BrownoutRetryAfter = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	c.Probe = c.Probe.withDefaults()
	return c
}

// Validate rejects unusable configurations (after defaulting).
func (c Config) Validate() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("gateway: no backends")
	}
	names := make(map[string]bool, len(c.Backends))
	for _, b := range c.Backends {
		if err := b.Validate(); err != nil {
			return err
		}
		if names[b.Name] {
			return fmt.Errorf("gateway: duplicate backend name %q", b.Name)
		}
		names[b.Name] = true
	}
	if _, err := NewRouter(c.Route); err != nil {
		return err
	}
	if c.ForwardTimeout < 0 {
		return fmt.Errorf("gateway: negative forward timeout %v", c.ForwardTimeout)
	}
	if c.DrainRetryAfter < 0 {
		return fmt.Errorf("gateway: negative drain retry-after %v", c.DrainRetryAfter)
	}
	if c.BrownoutRetryAfter < 0 {
		return fmt.Errorf("gateway: negative brownout retry-after %v", c.BrownoutRetryAfter)
	}
	return c.Probe.Validate()
}

// lifecycle states, mirroring the replica daemon's.
const (
	stateServing int32 = iota
	stateDraining
	stateStopped
)

// Gateway routes generate requests across a replica fleet.
type Gateway struct {
	cfg      Config
	backends []*Backend
	byName   map[string]*Backend
	router   Router
	now      func() time.Time

	// rootCtx anchors every forward; forceCancel fires when a drain
	// deadline expires, cutting off in-flight relays.
	rootCtx     context.Context
	forceCancel context.CancelFunc

	mu    sync.Mutex
	state int32
	// reqWG tracks in-flight client requests. Add happens under mu only
	// while serving, so Drain's Wait cannot race a late Add.
	reqWG sync.WaitGroup

	drainOnce sync.Once
	drainDone chan struct{}

	// ledger is the fleet ledger, one serve.Ledger row per class
	// (guarded by mu); "admitted" means routed to a replica that
	// finalized the response, whose own ledger then itemizes its
	// verdict. Rows count only classified arrivals: bad requests are
	// rejected before a class is known and counted in badRequests.
	ledger          [serve.NumClasses]serve.Ledger
	badRequests     atomic.Int64
	retriedFailover atomic.Int64
}

// New builds a gateway. ctx anchors every forward: cancelling it (or a
// Drain deadline) cuts in-flight relays off.
func New(ctx context.Context, cfg Config) (*Gateway, error) {
	if ctx == nil {
		return nil, fmt.Errorf("gateway: nil context")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	router, err := NewRouter(cfg.Route)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:       cfg,
		byName:    make(map[string]*Backend, len(cfg.Backends)),
		router:    router,
		now:       cfg.Now,
		drainDone: make(chan struct{}),
	}
	for _, bc := range cfg.Backends {
		b, err := newBackend(bc)
		if err != nil {
			return nil, err
		}
		g.backends = append(g.backends, b)
		g.byName[b.name] = b
	}
	g.rootCtx, g.forceCancel = context.WithCancel(ctx)
	return g, nil
}

// Backend looks a replica up by name (nil when unknown) — the seam the
// in-process drain hook and tests use.
func (g *Gateway) Backend(name string) *Backend { return g.byName[name] }

// Router reports the active routing algorithm's name.
func (g *Gateway) Router() string { return g.router.Name() }

// Draining reports whether the gateway has left the serving state.
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state != stateServing
}

// fleetBrownoutLevel is the fleet's overload verdict for class-aware
// shedding at the gateway edge: the MINIMUM brownout level advertised
// across eligible replicas. A class is shed here only when every
// replica that could take the request would reject it anyway — shedding
// at the edge then saves the forward, the failover sweep, and the
// replica work, while a single replica with headroom keeps the class
// alive. Replicas not yet probed advertise 0, so a fleet never browns
// out at the edge before it has heard from every replica.
func (g *Gateway) fleetBrownoutLevel() int {
	level := -1
	for _, b := range g.backends {
		if !b.eligible() {
			continue
		}
		if l := b.brownoutLevel(); level < 0 || l < level {
			level = l
		}
	}
	if level < 0 {
		return 0
	}
	return level
}

// candidates returns the replicas in rotation, excluding this request's
// already-failed set, in configuration order.
func (g *Gateway) candidates(exclude map[*Backend]bool) []*Backend {
	var cands []*Backend
	for _, b := range g.backends {
		if exclude[b] || !b.eligible() {
			continue
		}
		cands = append(cands, b)
	}
	return cands
}

// retryableStatus reports whether a replica response should fail over
// to another replica rather than be relayed: the replica shed or failed
// the request, but a sibling over the same checkpoint may serve it —
// and idempotency makes the re-attempt safe. Client errors (4xx other
// than 429) and successes are final everywhere.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// route runs one client request through the fleet: pick a replica,
// forward, and on a transport failure or retryable shed fail over to a
// different healthy replica — never one already tried — up to the
// failover budget. It returns the response to relay and the backend
// that finalized it, or (nil, nil) when the request must be shed (no
// replica could even be attempted). When every attempted replica
// answered with a retryable shed, the last such response is relayed —
// the fleet is saturated, and the replica's own 429/503 with its
// Retry-After is the most informative answer the client can get.
func (g *Gateway) route(ctx context.Context, body []byte) (*relayed, *Backend) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Force-drain reaches in-flight forwards through the gateway root
	// context without parenting every request under it.
	stop := context.AfterFunc(g.rootCtx, cancel)
	defer stop()

	tried := make(map[*Backend]bool, len(g.backends))
	var last *relayed
	var lastBackend *Backend
	forwards := 0
	for forwards <= g.cfg.MaxFailovers {
		cands := g.candidates(tried)
		if len(cands) == 0 {
			break
		}
		b := g.router.Pick(cands)
		probe, ok := b.breaker.Allow()
		if !ok {
			// Breaker open: this replica is out for this request, but the
			// skip costs no forward attempt.
			tried[b] = true
			continue
		}
		if forwards > 0 {
			g.retriedFailover.Add(1)
			b.failoverSleep(g, forwards)
		}
		forwards++
		b.attempts.Add(1)
		rl, err := g.forwardOnce(ctx, b, body)
		if err != nil {
			// Transport-level failure: the replica never answered. Feed the
			// breaker, settle the probe slot, and fail over.
			b.breaker.Record(err)
			if probe {
				b.breaker.ProbeDone(false)
			}
			tried[b] = true
			if ctx.Err() != nil {
				// The client is gone or force-drain fired; retrying
				// elsewhere serves nobody.
				break
			}
			continue
		}
		// The replica answered: reachability is healthy whatever the
		// status — its own admission is the authority on load.
		b.breaker.Record(nil)
		if probe {
			b.breaker.ProbeDone(true)
		}
		if !retryableStatus(rl.status) {
			return rl, b
		}
		last, lastBackend = rl, b
		tried[b] = true
		b.failovers.Add(1)
		if ctx.Err() != nil {
			break
		}
	}
	if last != nil {
		return last, lastBackend
	}
	return nil, nil
}

// failoverSleep paces retry n (1-based) with the deterministic backoff.
func (b *Backend) failoverSleep(g *Gateway, n int) {
	if d := g.cfg.Backoff(n); d > 0 {
		g.cfg.Sleep(d)
	}
}

// forwardOnce runs one bounded forward attempt.
func (g *Gateway) forwardOnce(ctx context.Context, b *Backend, body []byte) (*relayed, error) {
	if g.cfg.ForwardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.ForwardTimeout)
		defer cancel()
	}
	return b.forward(ctx, body)
}

// Drain stops admission and waits for in-flight relays to finish. When
// ctx expires first, in-flight forwards are force-cancelled and the ctx
// error is returned. Drain is idempotent; concurrent calls all wait.
// The fronted replicas are not touched — draining the gateway says
// nothing about the fleet behind it.
func (g *Gateway) Drain(ctx context.Context) error {
	g.mu.Lock()
	if g.state == stateServing {
		g.state = stateDraining
	}
	g.mu.Unlock()

	var derr error
	done := make(chan struct{})
	go func() {
		g.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		g.forceCancel()
		<-done
		derr = fmt.Errorf("gateway: drain deadline expired, in-flight relays cancelled: %w", ctx.Err())
	}

	g.drainOnce.Do(func() {
		g.mu.Lock()
		g.state = stateStopped
		g.mu.Unlock()
		g.forceCancel() // release context resources even on a clean drain
		close(g.drainDone)
	})
	<-g.drainDone
	return derr
}

// DrainOut takes a replica out of rotation administratively: the
// router stops seeing it, in-flight forwards to it finish normally,
// and — unlike a breaker trip or probe failure — nothing the replica
// does brings it back until DrainIn. It composes with the replica's
// own graceful drain: drain it out here first, and its drain runs with
// no gateway traffic arriving at all. Idempotent; reports whether the
// replica was previously in rotation by this switch.
func (g *Gateway) DrainOut(name string) (wasIn bool, err error) {
	b := g.byName[name]
	if b == nil {
		return false, fmt.Errorf("gateway: unknown replica %q", name)
	}
	return !b.setAdminOut(true), nil
}

// DrainIn returns an administratively drained replica to rotation (its
// health probing verdict still applies). Idempotent.
func (g *Gateway) DrainIn(name string) (wasOut bool, err error) {
	b := g.byName[name]
	if b == nil {
		return false, fmt.Errorf("gateway: unknown replica %q", name)
	}
	return b.setAdminOut(false), nil
}

// FleetSchemaVersion identifies the /fleetz JSON schema, on the same
// contract as server.StatzSchemaVersion. v3 carries each class row as a
// serve.Ledger under "ledger", every bucket itemized, where v2 folded
// the class-blind ones into shed_other.
const FleetSchemaVersion = 3

// BackendStats is one replica's slice of the /fleetz document.
type BackendStats struct {
	Name         string `json:"name"`
	URL          string `json:"url"`
	Weight       int    `json:"weight"`
	Ready        bool   `json:"ready"`
	Draining     bool   `json:"draining"`
	AdminDrained bool   `json:"admin_drained"`

	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`

	Inflight  int64 `json:"inflight"`
	Attempts  int64 `json:"attempts"`
	Finalized int64 `json:"finalized"`
	Served    int64 `json:"served"`
	Failovers int64 `json:"failovers"`

	Breaker server.BreakerSnapshot `json:"breaker"`
	// Replica is the last probed /statz snapshot (nil before the first
	// successful stats probe).
	Replica *server.Stats `json:"replica,omitempty"`
}

// FleetStats is the /fleetz document: the gateway ledger plus
// per-replica attribution.
type FleetStats struct {
	SchemaVersion int    `json:"fleetz_version"`
	State         string `json:"state"`
	Route         string `json:"route"`

	Arrivals             int64 `json:"arrivals"`
	Routed               int64 `json:"routed"`
	RetriedFailover      int64 `json:"retried_failover"`
	ShedNoHealthyBackend int64 `json:"shed_no_healthy_backend"`
	ShedDraining         int64 `json:"shed_draining"`
	ShedBrownout         int64 `json:"shed_brownout"`
	BadRequests          int64 `json:"bad_requests"`

	// Classes is the fleet's per-class ledger: classified arrivals only,
	// so the global ledger above is the rows' sum plus BadRequests.
	Classes []serve.ClassRow `json:"classes"`

	Backends []BackendStats `json:"backends"`
}

// Conserved checks the fleet ledger: every class row conserves, the
// global ledger is the rows' sum plus the class-less bad requests, and
// the per-replica attributions sum to the routed total. Like the
// replica's, it is guaranteed only at quiescence — an arrival being
// routed has no bucket yet.
func (fs FleetStats) Conserved() bool {
	var finalized int64
	for _, b := range fs.Backends {
		finalized += b.Finalized
	}
	var sum serve.Ledger
	for _, row := range fs.Classes {
		if !row.Ledger.Conserved() {
			return false
		}
		sum.Add(row.Ledger)
	}
	return finalized == fs.Routed && fs.BadRequests >= 0 &&
		sum == serve.Ledger{Arrivals: fs.Arrivals - fs.BadRequests, Buckets: [serve.NumBuckets]int64{
			serve.Admitted:             fs.Routed,
			serve.ShedDraining:         fs.ShedDraining,
			serve.ShedBrownout:         fs.ShedBrownout,
			serve.ShedNoHealthyBackend: fs.ShedNoHealthyBackend,
		}}
}

// record counts one classified request's bucket.
func (g *Gateway) record(class serve.Class, b serve.Bucket) {
	g.mu.Lock()
	g.ledger[class].Buckets[b]++
	g.mu.Unlock()
}

// Stats snapshots the gateway's counters and every replica's state.
func (g *Gateway) Stats() FleetStats {
	g.mu.Lock()
	state := g.state
	ledger := g.ledger
	g.mu.Unlock()
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
	bad := g.badRequests.Load()
	fs := FleetStats{
		SchemaVersion:        FleetSchemaVersion,
		State:                name,
		Route:                g.router.Name(),
		Arrivals:             total.Arrivals + bad,
		Routed:               total.Buckets[serve.Admitted],
		RetriedFailover:      g.retriedFailover.Load(),
		ShedNoHealthyBackend: total.Buckets[serve.ShedNoHealthyBackend],
		ShedDraining:         total.Buckets[serve.ShedDraining],
		ShedBrownout:         total.Buckets[serve.ShedBrownout],
		BadRequests:          bad,
		Classes:              serve.ClassRows(ledger),
	}
	for _, b := range g.backends {
		b.mu.Lock()
		bs := BackendStats{
			Name:         b.name,
			URL:          b.baseURL,
			Weight:       b.weight,
			Ready:        b.ready,
			Draining:     b.draining,
			AdminDrained: b.adminOut,
		}
		if b.haveStats {
			snap := b.lastStats
			bs.Replica = &snap
		}
		b.mu.Unlock()
		bs.Probes = b.probes.Load()
		bs.ProbeFailures = b.probeFailures.Load()
		bs.Inflight = b.inflight.Load()
		bs.Attempts = b.attempts.Load()
		bs.Finalized = b.finalized.Load()
		bs.Served = b.served.Load()
		bs.Failovers = b.failovers.Load()
		bs.Breaker = b.breaker.Snapshot()
		fs.Backends = append(fs.Backends, bs)
	}
	return fs
}
