package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"helmsim/internal/serve"
)

// errorResponse mirrors the replica daemon's non-2xx body shape, so a
// client sees one error contract whether the gateway or a replica shed
// it.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the gateway's HTTP surface:
//
//	POST /v1/generate          — route a generation across the fleet
//	GET  /healthz              — gateway liveness
//	GET  /readyz               — gateway readiness (503 once draining)
//	GET  /fleetz               — fleet ledger + per-replica snapshot
//	POST /admin/drain?replica= — take a replica out of rotation
//	POST /admin/undrain?replica= — return it to rotation
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", g.handleGenerate)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /fleetz", g.handleFleetz)
	mux.HandleFunc("POST /admin/drain", g.handleAdminDrain(true))
	mux.HandleFunc("POST /admin/undrain", g.handleAdminDrain(false))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // client hanging up mid-body is not actionable
}

// setRetryAfter writes a Retry-After header, rounding to whole seconds
// with a one-second floor.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	if d <= 0 {
		return
	}
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// handleGenerate is the gateway data path: validate just enough to
// reject garbage cheaply, then route with failover. The replica owns
// model-level validation (vocabulary bounds, token caps) — the gateway
// is deliberately model-agnostic so heterogeneous fleets need no
// config duplication.
func (g *Gateway) handleGenerate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRelayBody))
	if err != nil {
		g.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "unreadable request: " + err.Error()})
		return
	}
	var probe struct {
		Prompt []int  `json:"prompt"`
		Class  string `json:"class"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		g.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	if len(probe.Prompt) == 0 {
		g.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty prompt"})
		return
	}
	class, err := serve.ParseClass(probe.Class)
	if err != nil {
		g.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// Admission: the in-flight count may only grow while serving, so
	// Drain's Wait cannot race a late arrival. The arrival is counted in
	// the same critical section.
	g.mu.Lock()
	g.ledger[class].Arrivals++
	if g.state != stateServing {
		g.ledger[class].Buckets[serve.ShedDraining]++
		g.mu.Unlock()
		setRetryAfter(w, g.cfg.DrainRetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "gateway draining"})
		return
	}
	g.reqWG.Add(1)
	g.mu.Unlock()
	defer g.reqWG.Done()

	// Fleet-level brownout: when every eligible replica advertises it
	// would reject this class anyway, shed at the edge — honest 503 with
	// Retry-After, without burning a forward and a failover sweep on a
	// foregone conclusion. A single replica with headroom keeps the
	// class flowing (its own admission stays the authority). This
	// two-line check is the edge's own, not serve.Admit's: the edge has
	// no backlog, budget or queue of its own to decide on.
	if level := g.fleetBrownoutLevel(); int(class) < level {
		g.record(class, serve.ShedBrownout)
		setRetryAfter(w, g.cfg.BrownoutRetryAfter)
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: fmt.Sprintf("fleet brownout: %s class shed under sustained overload", class)})
		return
	}

	rl, b := g.route(r.Context(), body)
	if rl == nil {
		g.record(class, serve.ShedNoHealthyBackend)
		setRetryAfter(w, g.cfg.DrainRetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no healthy replica"})
		return
	}
	g.record(class, serve.Admitted)
	b.finalized.Add(1)
	if rl.status == http.StatusOK {
		b.served.Add(1)
	}
	if rl.contentType != "" {
		w.Header().Set("Content-Type", rl.contentType)
	}
	if rl.retryAfter != "" {
		w.Header().Set("Retry-After", rl.retryAfter)
	}
	w.Header().Set("X-Helm-Replica", b.name)
	w.WriteHeader(rl.status)
	_, _ = w.Write(rl.body)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether the gateway can take traffic: serving,
// with at least one replica in rotation. A fleet with every replica
// down is not ready — an upstream balancer should route around this
// gateway too.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if g.Draining() {
		setRetryAfter(w, g.cfg.DrainRetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if len(g.candidates(nil)) == 0 {
		setRetryAfter(w, g.cfg.DrainRetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy replica"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (g *Gateway) handleFleetz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Stats())
}

// handleAdminDrain serves both rotation switches; out selects the
// direction.
func (g *Gateway) handleAdminDrain(out bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("replica")
		if name == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing replica parameter"})
			return
		}
		var changed bool
		var err error
		if out {
			changed, err = g.DrainOut(name)
		} else {
			changed, err = g.DrainIn(name)
		}
		if err != nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		verb := "drained out of"
		if !out {
			verb = "returned to"
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"changed": changed,
			"detail":  fmt.Sprintf("replica %q %s rotation", name, verb),
		})
	}
}
