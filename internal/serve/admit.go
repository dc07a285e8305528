package serve

import (
	"encoding/json"
	"fmt"

	"helmsim/internal/units"
)

// Bucket is where one request's admission story ends: Admitted, or
// exactly one shed reason. The simulator, helmd and the gateway each
// count every request into one Bucket of its class's Ledger row; each
// layer uses the subset of buckets its own verdicts can reach.
type Bucket int

const (
	// Admitted: the request passed every verdict and started service.
	// From Admit and Renege it means "no shed here".
	Admitted Bucket = iota
	// ShedDraining: it arrived after admission stopped.
	ShedDraining
	// ShedPagePressure: its full context exceeds the whole KV page
	// budget, so no amount of waiting admits it.
	ShedPagePressure
	// ShedBrownout: its class was below the brownout level.
	ShedBrownout
	// ShedCostBudget: its estimated tokens did not fit the total or the
	// class token budget.
	ShedCostBudget
	// ShedQueueFull: the waiting line was at its bound.
	ShedQueueFull
	// ShedBreakerOpen: helmd's storage circuit breaker refused it.
	ShedBreakerOpen
	// ShedClientGone: its client hung up while it waited.
	ShedClientGone
	// ShedDeadline: its deadline passed while it waited; it was never
	// started, because serving it would burn capacity on an answer
	// nobody is waiting for.
	ShedDeadline
	// ShedMaxWait: it waited past MaxWait and reneged.
	ShedMaxWait
	// ShedNoHealthyBackend: the gateway found no replica to attempt.
	ShedNoHealthyBackend

	// NumBuckets is the number of buckets; a Ledger has one count each.
	NumBuckets
)

// bucketNames are the wire names: the /statz and /fleetz keys of the
// global ledger, and the keys of every class row.
var bucketNames = [NumBuckets]string{
	Admitted:             "admitted",
	ShedDraining:         "shed_draining",
	ShedPagePressure:     "shed_page_pressure",
	ShedBrownout:         "shed_brownout",
	ShedCostBudget:       "shed_cost_budget",
	ShedQueueFull:        "shed_queue_full",
	ShedBreakerOpen:      "shed_breaker_open",
	ShedClientGone:       "shed_client_gone",
	ShedDeadline:         "shed_deadline",
	ShedMaxWait:          "shed_max_wait",
	ShedNoHealthyBackend: "shed_no_healthy_backend",
}

// String is the bucket's wire name.
func (b Bucket) String() string {
	if b < 0 || b >= NumBuckets {
		return fmt.Sprintf("bucket(%d)", int(b))
	}
	return bucketNames[b]
}

// Ledger is one conserved admission row. Arrivals is counted when a
// request arrives and one bucket when its story ends, so between the
// two a request is in flight and the row conserves at quiescence. It
// is the one ledger type: every layer keeps a row per class and derives
// its global ledger as the rows' sum.
type Ledger struct {
	Arrivals int64
	Buckets  [NumBuckets]int64
}

// Conserved reports whether every arrival landed in exactly one
// bucket: no count is negative and the buckets sum to Arrivals.
func (l Ledger) Conserved() bool {
	total := int64(0)
	for _, n := range l.Buckets {
		if n < 0 {
			return false
		}
		total += n
	}
	return l.Arrivals >= 0 && total == l.Arrivals
}

// Add adds o into l, bucket by bucket.
func (l *Ledger) Add(o Ledger) {
	l.Arrivals += o.Arrivals
	for b, n := range o.Buckets {
		l.Buckets[b] += n
	}
}

// MarshalJSON writes the row as one object keyed by "arrivals" and the
// bucket wire names.
func (l Ledger) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, NumBuckets+1)
	m["arrivals"] = l.Arrivals
	for b, n := range l.Buckets {
		m[Bucket(b).String()] = n
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads what MarshalJSON writes; absent keys read zero.
func (l *Ledger) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	l.Arrivals = m["arrivals"]
	for b := range l.Buckets {
		l.Buckets[b] = m[Bucket(b).String()]
	}
	return nil
}

// ClassRow is one class's row of a live /statz or /fleetz document:
// its Ledger, plus two gauges that move both ways and so stay out of
// the identity.
type ClassRow struct {
	// Class is the row's wire name (see Class.String).
	Class string `json:"class"`
	// QueueDepth is the number of requests of this class waiting now.
	QueueDepth int64 `json:"queue_depth"`
	// CostBacklog is the estimated tokens (prefill + predicted decode)
	// admitted for this class and not yet settled.
	CostBacklog int64 `json:"cost_backlog"`
	// Ledger is the class's conserved admission row.
	Ledger Ledger `json:"ledger"`
}

// ClassRows names one row per class, indexed by Class.
func ClassRows(ledgers [NumClasses]Ledger) []ClassRow {
	rows := make([]ClassRow, NumClasses)
	for c := range rows {
		rows[c] = ClassRow{Class: Class(c).String(), Ledger: ledgers[c]}
	}
	return rows
}

// AdmitState is what admission sees when one request arrives: the
// layer's lifecycle, the request's fit, the load already admitted, and
// the bounds. Zero bounds are unbounded.
type AdmitState struct {
	// Draining means admission has stopped.
	Draining bool
	// PagesFit means the request's full context fits the whole KV page
	// budget.
	PagesFit bool
	// Backlog and ClassBacklog are the admitted, unsettled estimated
	// tokens: in total and of the request's class.
	Backlog, ClassBacklog int
	// Waiting is the number of requests in the waiting line.
	Waiting int
	// TokenBudget, ClassBudget and MaxQueue bound Backlog, ClassBacklog
	// and Waiting.
	TokenBudget, ClassBudget, MaxQueue int
	// Brownout observes the backlog of every arrival that gets past the
	// request-size verdicts.
	Brownout *Brownout
}

// Admit is the one admission verdict, shared by the simulator and
// helmd. For a request of class and estimated cost est it returns the
// first bucket that applies, in this order:
//
//  1. draining, then page pressure: lifecycle and request-size
//     verdicts, which no amount of load changes;
//  2. brownout: the machine observes the backlog, and a class below its
//     level is rejected before any hard cap binds;
//  3. the total token budget, then the class budget;
//  4. the queue bound.
//
// Admitted means the request may wait in line; Renege decides again
// when it leaves the line. helmd consults its storage breaker after
// Admit, because the breaker hands out half-open probe slots that a
// request shed here must not consume.
func Admit(st AdmitState, class Class, est int) Bucket {
	switch {
	case st.Draining:
		return ShedDraining
	case !st.PagesFit:
		return ShedPagePressure
	case int(class) < st.Brownout.Observe(st.Backlog):
		return ShedBrownout
	case st.TokenBudget > 0 && st.Backlog+est > st.TokenBudget:
		return ShedCostBudget
	case st.ClassBudget > 0 && st.ClassBacklog+est > st.ClassBudget:
		return ShedCostBudget
	case st.MaxQueue > 0 && st.Waiting >= st.MaxQueue:
		return ShedQueueFull
	}
	return Admitted
}

// Renege is the dispatch-time verdict on a request that waited: a
// client that hung up, then a deadline reached while waiting (the work
// is worthless), then patience past maxWait. A zero deadline or
// maxWait is no bound. Admitted means the request starts service.
func Renege(clientGone bool, waited, deadline, maxWait units.Duration) Bucket {
	switch {
	case clientGone:
		return ShedClientGone
	case deadline > 0 && waited >= deadline:
		return ShedDeadline
	case maxWait > 0 && waited > maxWait:
		return ShedMaxWait
	}
	return Admitted
}
