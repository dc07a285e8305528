package serve

import (
	"testing"

	"helmsim/internal/units"
)

// admitVerdicts lists every Admit verdict in precedence order, each
// with the one state change that makes it apply to a batch-class
// request of estimated cost 10 arriving to a backlog of 60 tokens (10
// of them its class's) and 5 waiting. The changes are independent, so
// any subset of them can apply at once.
var admitVerdicts = []struct {
	bucket Bucket
	apply  func(*AdmitState)
}{
	{ShedDraining, func(st *AdmitState) { st.Draining = true }},
	{ShedPagePressure, func(st *AdmitState) { st.PagesFit = false }},
	// Backlog 60 >= High*Budget = 50 with Sustain 1: the first
	// observation raises the level to 1, above the batch class.
	{ShedBrownout, func(st *AdmitState) {
		st.Brownout = (&Brownout{Budget: 100, High: 0.5, Low: 0.1, Sustain: 1}).Defaulted()
	}},
	{ShedCostBudget, func(st *AdmitState) { st.TokenBudget = 65 }},
	{ShedCostBudget, func(st *AdmitState) { st.ClassBudget = 15 }},
	{ShedQueueFull, func(st *AdmitState) { st.MaxQueue = 5 }},
}

// noBrownout is a machine without a budget: it never engages.
func noBrownout() *Brownout { return (&Brownout{}).Defaulted() }

func admitBase() AdmitState {
	return AdmitState{PagesFit: true, Backlog: 60, ClassBacklog: 10, Waiting: 5, Brownout: noBrownout()}
}

// TestAdmitPrecedence: for every set of verdicts that apply together —
// every pair among them — Admit returns the earliest in the documented
// order, and Admitted when none applies.
func TestAdmitPrecedence(t *testing.T) {
	for set := 0; set < 1<<len(admitVerdicts); set++ {
		st := admitBase()
		want := Admitted
		for i := len(admitVerdicts) - 1; i >= 0; i-- {
			if set&(1<<i) != 0 {
				admitVerdicts[i].apply(&st)
				want = admitVerdicts[i].bucket
			}
		}
		if got := Admit(st, ClassBatch, 10); got != want {
			t.Errorf("verdict set %0*b: Admit = %v, want %v", len(admitVerdicts), set, got, want)
		}
	}
}

// TestAdmitOneRule pins the cases where the simulator and helmd used to
// disagree; both now run Admit, so each is one row here.
func TestAdmitOneRule(t *testing.T) {
	brownedOut := func() *Brownout {
		return (&Brownout{Budget: 100, High: 0.5, Low: 0.1, Sustain: 1}).Defaulted()
	}
	// An estimate larger than the whole budget is a cost-budget shed, not
	// a class-blind one — and brownout, the earlier verdict, wins over it.
	if got := Admit(AdmitState{PagesFit: true, TokenBudget: 100, Brownout: noBrownout()}, ClassBatch, 150); got != ShedCostBudget {
		t.Errorf("estimate over the whole budget: %v, want %v", got, ShedCostBudget)
	}
	st := AdmitState{PagesFit: true, Backlog: 60, TokenBudget: 100, Brownout: brownedOut()}
	if got := Admit(st, ClassBatch, 150); got != ShedBrownout {
		t.Errorf("estimate over the whole budget under brownout: %v, want %v", got, ShedBrownout)
	}
	// Brownout observes only arrivals that pass draining and page
	// pressure: those verdicts leave its streak untouched.
	for _, st := range []AdmitState{
		{Draining: true, PagesFit: true, Backlog: 60},
		{PagesFit: false, Backlog: 60},
	} {
		st.Brownout = brownedOut()
		Admit(st, ClassBatch, 10)
		if st.Brownout.Level() != 0 {
			t.Errorf("%+v: brownout observed a request shed before it", st)
		}
	}
}

// TestRenegePrecedence: client gone, then deadline, then MaxWait; the
// deadline binds at equality (the work is already late), patience only
// past it.
func TestRenegePrecedence(t *testing.T) {
	cases := []struct {
		gone                      bool
		waited, deadline, patient units.Duration
		want                      Bucket
	}{
		{false, 5, 0, 0, Admitted},
		{false, 5, 10, 10, Admitted},
		{true, 5, 10, 10, ShedClientGone},
		{true, 20, 10, 10, ShedClientGone},
		{false, 20, 10, 10, ShedDeadline},
		{false, 10, 10, 0, ShedDeadline},
		{false, 10, 0, 10, Admitted},
		{false, 11, 0, 10, ShedMaxWait},
		{false, 11, 12, 10, ShedMaxWait},
	}
	for _, c := range cases {
		if got := Renege(c.gone, c.waited, c.deadline, c.patient); got != c.want {
			t.Errorf("Renege(%v, %v, %v, %v) = %v, want %v", c.gone, c.waited, c.deadline, c.patient, got, c.want)
		}
	}
}
