package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"helmsim/internal/fault"
	"helmsim/internal/server"
)

// BackendConfig describes one replica the gateway fronts.
type BackendConfig struct {
	// Name identifies the replica in the fleet ledger and the admin API
	// (required, unique within a gateway).
	Name string
	// URL is the replica's base URL, e.g. "http://127.0.0.1:8080". The
	// gateway appends /v1/generate, /readyz, and /statz to it.
	URL string
	// Client issues the replica's HTTP traffic — forwards and probes. A
	// nil Client gets a fresh one over http.DefaultTransport. In-process
	// replicas supply a Client over a HandlerTransport; chaos tests wrap
	// the transport with fault.NewRoundTripper.
	Client *http.Client
	// Weight is the replica's share under the weighted router — the
	// heterogeneous-tier knob: a replica whose weights live on a faster
	// memdev tier takes proportionally more traffic (default 1).
	Weight int
	// Breaker tunes this replica's circuit breaker (zero values take the
	// server package's defaults). The gateway reuses the daemon's own
	// windowed breaker, fed with transport-level outcomes: a replica the
	// gateway cannot reach trips it; a replica that answers — even with
	// a shed — keeps it closed, because its own admission is the
	// authority on load.
	Breaker server.BreakerConfig
}

func (c BackendConfig) withDefaults() BackendConfig {
	if c.Weight == 0 {
		c.Weight = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Validate rejects unusable backend configurations (after defaulting).
func (c BackendConfig) Validate() error {
	c = c.withDefaults()
	if c.Name == "" {
		return fmt.Errorf("gateway: backend with empty name")
	}
	if c.URL == "" {
		return fmt.Errorf("gateway: backend %q with empty URL", c.Name)
	}
	if c.Weight < 1 {
		return fmt.Errorf("gateway: backend %q weight %d < 1", c.Name, c.Weight)
	}
	return c.Breaker.Validate()
}

// Backend is the gateway's live view of one replica: rotation state
// maintained by the prober and the admin API, a per-replica circuit
// breaker, and the attribution counters of the fleet ledger.
type Backend struct {
	name    string
	baseURL string
	client  *http.Client
	weight  int
	breaker *server.Breaker

	// mu guards the probe-maintained state below.
	mu sync.Mutex
	// ready is the prober's verdict: flips false after FailThreshold
	// consecutive probe failures, back after PassThreshold passes.
	ready bool
	// draining means the replica itself reported draining via /readyz —
	// its own graceful drain has begun, so the gateway pulls it from
	// rotation without counting the (healthy, deliberate) refusal as a
	// probe failure.
	draining bool
	// adminOut means an operator drained this replica out of rotation
	// through the gateway's admin API.
	adminOut     bool
	consecFails  int
	consecPasses int
	// nextProbeAt honors a Retry-After from the replica: the prober
	// backs off on the same contract clients do.
	nextProbeAt time.Time
	lastStats   server.Stats
	haveStats   bool

	inflight atomic.Int64

	probes        atomic.Int64
	probeFailures atomic.Int64

	// Fleet-ledger attribution. attempts counts forwards routed here;
	// finalized counts responses relayed to a client from here (the
	// conserved bucket: sum over backends + gateway sheds == arrivals);
	// served counts the 200s among them; failovers counts attempts that
	// failed or shed here and were retried on another replica.
	attempts  atomic.Int64
	finalized atomic.Int64
	served    atomic.Int64
	failovers atomic.Int64
}

func newBackend(c BackendConfig) (*Backend, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	br, err := server.NewBreaker(c.Breaker)
	if err != nil {
		return nil, err
	}
	return &Backend{
		name:    c.Name,
		baseURL: c.URL,
		client:  c.Client,
		weight:  c.Weight,
		breaker: br,
		// Optimistic start: a backend is in rotation until the prober
		// says otherwise, so a gateway serves before its first probe
		// round and a cold-started dead replica is handled by failover
		// until the prober catches up.
		ready: true,
	}, nil
}

// Name reports the replica's fleet-ledger identity.
func (b *Backend) Name() string { return b.name }

// eligible reports whether the replica is in rotation: probed ready,
// not draining itself, and not drained out by an operator. The breaker
// is checked separately at attempt time because its half-open state
// hands out probe slots that must be settled.
func (b *Backend) eligible() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready && !b.draining && !b.adminOut
}

// setAdminOut flips the operator rotation switch, reporting the
// previous state.
func (b *Backend) setAdminOut(out bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	prev := b.adminOut
	b.adminOut = out
	return prev
}

// MarkDraining is the in-process drain hook target: a replica whose
// server.Config.OnStateChange fires "draining" calls this to pull
// itself from rotation immediately, without waiting for the next probe
// round. The prober keeps the flag honest afterwards — a replica whose
// /readyz goes back to 200 returns to rotation.
func (b *Backend) MarkDraining() {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()
}

// queueDepth is the replica-side load signal for the least-load router:
// the last probed queue depth, or 0 before the first statz probe.
func (b *Backend) queueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.haveStats {
		return 0
	}
	return b.lastStats.QueueDepth
}

// costBacklog is the replica's advertised admitted-cost backlog in
// estimated tokens — the fine-grained headroom signal the least-load
// router folds in. 0 before the first probe, so an unprobed replica is
// scored on request counts alone.
func (b *Backend) costBacklog() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.haveStats {
		return 0
	}
	return b.lastStats.CostBacklog
}

// brownoutLevel is the replica's advertised brownout level (classes
// below it are rejected at its admission). 0 before the first probe.
func (b *Backend) brownoutLevel() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.haveStats {
		return 0
	}
	return b.lastStats.BrownoutLevel
}

// relayed is one replica response the gateway can hand to a client:
// status, body, and the headers the shed contract carries.
type relayed struct {
	status      int
	body        []byte
	contentType string
	retryAfter  string
}

// transportError marks a forward that never produced an HTTP response —
// the replica is unreachable (killed, blacked out, mid-crash). It is
// transient from the fleet's perspective: another replica can serve the
// request, and this one may come back.
type transportError struct{ err error }

func (e transportError) Error() string   { return fmt.Sprintf("gateway: transport: %v", e.err) }
func (e transportError) Unwrap() error   { return e.err }
func (e transportError) Transient() bool { return true }

// forward sends one generate request to the replica and reads the full
// response. Any well-formed HTTP response — success or shed — returns a
// relayed; only transport-level failures return an error (always
// classifiable via fault.IsTransient through the transportError wrap).
func (b *Backend) forward(ctx context.Context, body []byte) (*relayed, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.baseURL+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("gateway: building forward to %s: %w", b.name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	resp, err := b.client.Do(req)
	if err != nil {
		if fault.IsTransient(err) {
			return nil, err
		}
		return nil, transportError{err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBody))
	if err != nil {
		// The response started and died mid-body: same verdict as a
		// connection that never answered.
		if fault.IsTransient(err) {
			return nil, err
		}
		return nil, transportError{err}
	}
	return &relayed{
		status:      resp.StatusCode,
		body:        payload,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
	}, nil
}

// maxRelayBody bounds a relayed replica response, mirroring the
// daemon's own request bound.
const maxRelayBody = 1 << 20
