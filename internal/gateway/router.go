package gateway

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Router picks a replica for one forward attempt from the eligible
// candidates. Pick is called with a non-empty candidate slice already
// filtered for health, rotation, and this request's exclusion set (a
// failover retry never sees the replica that just failed it), in the
// gateway's fixed configuration order. Implementations must be safe for
// concurrent use and deterministic given their own state — routing
// decisions must replay, like everything else in this codebase.
type Router interface {
	Name() string
	Pick(cands []*Backend) *Backend
}

// Routing algorithm names accepted by NewRouter (and helmgw -route).
const (
	RouteRoundRobin = "round-robin"
	RouteLeastLoad  = "least-load"
	RouteWeighted   = "weighted"
)

// NewRouter builds a routing algorithm by name. The empty name defaults
// to round-robin.
func NewRouter(name string) (Router, error) {
	switch name {
	case "", RouteRoundRobin:
		return &roundRobin{}, nil
	case RouteLeastLoad:
		return leastLoad{}, nil
	case RouteWeighted:
		return &weighted{cur: make(map[*Backend]int)}, nil
	}
	return nil, fmt.Errorf("gateway: unknown routing algorithm %q (want %s, %s, or %s)",
		name, RouteRoundRobin, RouteLeastLoad, RouteWeighted)
}

// roundRobin cycles a global counter over whatever candidate set each
// pick sees. With a stable fleet this is a strict rotation; with
// replicas dropping in and out it degrades gracefully to an even spread
// rather than stalling on membership changes.
type roundRobin struct{ n atomic.Uint64 }

func (r *roundRobin) Name() string { return RouteRoundRobin }

func (r *roundRobin) Pick(cands []*Backend) *Backend {
	return cands[int((r.n.Add(1)-1)%uint64(len(cands)))]
}

// leastLoad picks the replica with the fewest outstanding requests:
// the gateway's own in-flight count plus the queue depth from the last
// /statz probe (the replica-side backlog the gateway cannot see from
// its own accounting), refined by the replica's advertised cost backlog
// in estimated tokens so two replicas with equal request counts but
// unequal work are told apart. Ties break toward configuration order,
// keeping the decision deterministic.
type leastLoad struct{}

func (leastLoad) Name() string { return RouteLeastLoad }

func (leastLoad) Pick(cands []*Backend) *Backend {
	best := cands[0]
	bestScore := load(best)
	for _, b := range cands[1:] {
		if s := load(b); s < bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// load scores a replica for least-load routing. The request count
// dominates (scaled so one queued request outweighs any realistic
// per-request token estimate) and the advertised cost backlog breaks
// ties between equally-deep replicas; a replica that advertises no cost
// signal (not yet probed) scores on counts alone.
func load(b *Backend) int64 {
	return (b.inflight.Load()+int64(b.queueDepth()))<<10 + b.costBacklog()
}

// weighted is smooth weighted round-robin over the configured tier
// weights: each pick raises every candidate's current score by its
// weight, takes the highest, and lowers the winner by the candidate
// total. The sequence interleaves replicas proportionally to weight —
// a DRAM-tier replica at weight 4 takes four slots to an SSD-tier
// replica's one, spread evenly rather than in bursts — and is exactly
// reproducible.
type weighted struct {
	mu  sync.Mutex
	cur map[*Backend]int
}

func (w *weighted) Name() string { return RouteWeighted }

func (w *weighted) Pick(cands []*Backend) *Backend {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	best := cands[0]
	for _, b := range cands {
		w.cur[b] += b.weight
		total += b.weight
		if w.cur[b] > w.cur[best] {
			best = b
		}
	}
	w.cur[best] -= total
	return best
}
