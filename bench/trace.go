package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The traced pass records a span around each call the harness makes
// into a layer, from the harness's own wrappers: nothing inside the
// program is instrumented. Spans stay in memory and are written as a
// Chrome trace when the run ends.

// maxSpans bounds the trace file; counters keep counting past it.
const maxSpans = 150_000

// span is one timed call: the request it served (-1: none) and the
// span that caused it (-1: none).
type span struct {
	Lane, Name  string
	Layer       int // fetch spans: the layer fetched; -1 otherwise
	Req, Parent int
	Start, End  time.Duration
}

// reqTrace is what the wrappers learned about one fleet request. Each
// slot is written only by the goroutine serving that request.
type reqTrace struct {
	clientSpan, gatewaySpan int
	gateway, backends       time.Duration // ServeHTTP wall; Σ round trips under it
	lastBackend             time.Duration // the round trip that was relayed
	attempts                int
}

type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	// curReq/curSpan are the generation and step in flight on the
	// engine workloads, so a fetch issued by the prefetcher's goroutine
	// can name what caused it.
	curReq, curSpan atomic.Int64
	reqs            []reqTrace
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
	t.curReq.Store(-1)
	t.curSpan.Store(-1)
	return t
}

// expectRequests makes room for n tagged fleet requests.
func (t *tracer) expectRequests(n int) {
	t.reqs = make([]reqTrace, n)
	for i := range t.reqs {
		t.reqs[i].clientSpan, t.reqs[i].gatewaySpan = -1, -1
	}
}

// begin opens a span at start and returns its index (-1 once full).
func (t *tracer) begin(lane, name string, req, parent int, start time.Time) int {
	return t.beginLayer(lane, name, -1, req, parent, start)
}

func (t *tracer) beginLayer(lane, name string, layer, req, parent int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Lane: lane, Name: name, Layer: layer, Req: req, Parent: parent, Start: start.Sub(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) finish(idx int, end time.Time) {
	if idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].End = end.Sub(t.t0)
	t.mu.Unlock()
}

// fetch records one store fetch, caused by whatever step is in flight.
func (t *tracer) fetch(lane string, layer int, name string, start, end time.Time) {
	idx := t.beginLayer(lane, name, layer, int(t.curReq.Load()), int(t.curSpan.Load()), start)
	t.finish(idx, end)
}

type reqKey struct{}

// withReq tags a request's context with the harness's request index.
// The gateway derives every forward from the inbound context, so the
// tag reaches the backend round trips without any header crossing it.
func withReq(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

func reqOf(ctx context.Context) int {
	if id, ok := ctx.Value(reqKey{}).(int); ok {
		return id
	}
	return -1
}

// handler spans gateway.Handler().ServeHTTP.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := reqOf(r.Context())
		if id < 0 {
			h.ServeHTTP(w, r)
			return
		}
		rt := &t.reqs[id]
		start := time.Now()
		rt.gatewaySpan = t.begin("gateway", "ServeHTTP", id, rt.clientSpan, start)
		h.ServeHTTP(w, r)
		end := time.Now()
		rt.gateway = end.Sub(start)
		t.finish(rt.gatewaySpan, end)
	})
}

type tracedTransport struct {
	name  string
	inner http.RoundTripper
	t     *tracer
}

// transport spans each backend round trip of a tagged request; probes
// carry no tag and pass through untimed.
func (t *tracer) transport(name string, inner http.RoundTripper) http.RoundTripper {
	return tracedTransport{name: name, inner: inner, t: t}
}

func (tt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := reqOf(req.Context())
	if id < 0 {
		return tt.inner.RoundTrip(req)
	}
	rt := &tt.t.reqs[id]
	start := time.Now()
	idx := tt.t.begin("backend", tt.name, id, rt.gatewaySpan, start)
	resp, err := tt.inner.RoundTrip(req)
	end := time.Now()
	tt.t.finish(idx, end)
	rt.lastBackend = end.Sub(start)
	rt.backends += rt.lastBackend
	rt.attempts++
	return resp, err
}

// chromeEvent is the trace-event JSON schema internal/trace writes for
// simulated runs, so a live run loads beside a core.Run timeline.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// requestSlots spreads concurrent requests of one lane over rows, so
// overlapping spans do not pile onto one track.
const requestSlots = 32

func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	lanes := map[string]int{}
	events := make([]chromeEvent, 0, len(t.spans)+8)
	for i, s := range t.spans {
		base, ok := lanes[s.Lane]
		if !ok {
			base = (len(lanes) + 1) * 100
			lanes[s.Lane] = base
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: base, Args: map[string]any{"name": s.Lane}})
		}
		tid := base
		if s.Lane == "client" || s.Lane == "gateway" || s.Lane == "backend" {
			tid += 1 + s.Req%requestSlots
		}
		name := s.Name
		if s.Layer >= 0 {
			name = fmt.Sprintf("fetch L%d/%s", s.Layer, s.Name)
		}
		events = append(events, chromeEvent{
			Name: name, Cat: s.Lane, Ph: "X", PID: 1, TID: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"span": i, "req": s.Req, "parent": s.Parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Dropped     int           `json:"droppedSpans"`
	}{events, t.dropped})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
