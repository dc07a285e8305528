package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"helmsim/internal/server"
)

// ProbeConfig tunes per-replica health probing. Zero values take the
// documented defaults, so the zero config is usable.
type ProbeConfig struct {
	// Interval is the probe period of the background loop started by
	// Start (default 250ms).
	Interval time.Duration
	// Timeout bounds each probe HTTP call (default 2s).
	Timeout time.Duration
	// FailThreshold is the consecutive-failure count that flips a
	// replica out of rotation (default 3). One lost probe on a loaded
	// network must not evict a healthy replica.
	FailThreshold int
	// PassThreshold is the consecutive-pass count that flips a replica
	// back in (default 1): recovery is immediate by default because the
	// failover path keeps clients safe even if the replica flaps.
	PassThreshold int
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval == 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	if c.FailThreshold == 0 {
		c.FailThreshold = 3
	}
	if c.PassThreshold == 0 {
		c.PassThreshold = 1
	}
	return c
}

// Validate rejects unusable probe configurations (after defaulting).
func (c ProbeConfig) Validate() error {
	c = c.withDefaults()
	if c.Interval < 0 {
		return fmt.Errorf("gateway: negative probe interval %v", c.Interval)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("gateway: negative probe timeout %v", c.Timeout)
	}
	if c.FailThreshold < 1 {
		return fmt.Errorf("gateway: probe fail threshold %d < 1", c.FailThreshold)
	}
	if c.PassThreshold < 1 {
		return fmt.Errorf("gateway: probe pass threshold %d < 1", c.PassThreshold)
	}
	return nil
}

// Start runs the probe loop until ctx is cancelled: an immediate round,
// then one every Probe.Interval. It returns a done channel that closes
// when the loop (and its in-flight round) has exited.
func (g *Gateway) Start(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.ProbeOnce(ctx)
		t := time.NewTicker(g.cfg.Probe.Interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.ProbeOnce(ctx)
			}
		}
	}()
	return done
}

// ProbeOnce runs one synchronous probe round over every replica (in
// parallel; the round returns when the slowest probe settles). Tests
// call it directly to advance health state deterministically.
func (g *Gateway) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			g.probeBackend(ctx, b)
		}(b)
	}
	wg.Wait()
}

// probeBackend probes one replica: GET /readyz decides reachability and
// drain state, then GET /statz refreshes the load/generation snapshot
// the routers and /fleetz read. A 503 readiness refusal is a healthy
// replica declining traffic — its own graceful drain — so it resets the
// failure streak but leaves the replica out of rotation; only an
// unreachable or misbehaving replica counts toward FailThreshold.
func (g *Gateway) probeBackend(ctx context.Context, b *Backend) {
	now := g.now()
	b.mu.Lock()
	if now.Before(b.nextProbeAt) {
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()

	b.probes.Add(1)
	status, retryAfter, err := g.probeReadyz(ctx, b)

	var st *server.Stats
	reachable := err == nil && (status == http.StatusOK || status == http.StatusServiceUnavailable)
	if reachable {
		st = g.probeStatz(ctx, b)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if st != nil {
		b.lastStats, b.haveStats = *st, true
	}
	switch {
	case err != nil, !reachable:
		b.probeFailures.Add(1)
		b.consecPasses = 0
		b.consecFails++
		if b.consecFails >= g.cfg.Probe.FailThreshold {
			b.ready = false
		}
		// An unreachable replica says nothing about drain intent; keep
		// the last known drain state.
	case status == http.StatusServiceUnavailable:
		// Draining: deliberately out of rotation, but alive — the streak
		// toward unhealthy resets, and the prober honors the replica's
		// Retry-After back-off like any other client.
		b.draining = true
		b.consecFails = 0
		b.consecPasses++
		if b.consecPasses >= g.cfg.Probe.PassThreshold {
			b.ready = true
		}
		if retryAfter > 0 {
			b.nextProbeAt = now.Add(retryAfter)
		}
	default: // 200
		b.draining = false
		b.nextProbeAt = time.Time{}
		b.consecFails = 0
		b.consecPasses++
		if b.consecPasses >= g.cfg.Probe.PassThreshold {
			b.ready = true
		}
	}
}

// probeReadyz fetches the replica's readiness verdict and any
// Retry-After back-off it advertises.
func (g *Gateway) probeReadyz(ctx context.Context, b *Backend) (status int, retryAfter time.Duration, err error) {
	rctx, cancel := context.WithTimeout(ctx, g.cfg.Probe.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, b.baseURL+"/readyz", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxRelayBody))
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, nil
}

// probeStatz fetches the replica's /statz snapshot, or nil when it
// cannot be read or speaks another schema version. A stats failure
// never flips health on its own — readiness already answered — it only
// leaves the snapshot stale.
func (g *Gateway) probeStatz(ctx context.Context, b *Backend) *server.Stats {
	rctx, cancel := context.WithTimeout(ctx, g.cfg.Probe.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, b.baseURL+"/statz", nil)
	if err != nil {
		return nil
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxRelayBody))
		return nil
	}
	var st server.Stats
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRelayBody)).Decode(&st); err != nil {
		return nil
	}
	// Any other schema is discarded rather than misread.
	if st.SchemaVersion != server.StatzSchemaVersion {
		return nil
	}
	return &st
}
