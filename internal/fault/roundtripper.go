package fault

import (
	"fmt"
	"net/http"
	"sync/atomic"
)

// RoundTripper injects faults at the HTTP seam between a gateway and a
// replica: each request is one access of the plan. A transient outcome
// fails the round trip with an error wrapping ErrTransient (what a
// dying connection looks like to net/http callers), a spike delays it.
// Corruption outcomes are ignored at this seam — bit rot is a storage
// concern, and the checkpoint CRC layer owns it — but they still
// consume the plan's rng stream, so a seed replays identically whether
// the plan runs against a store or a transport.
//
// Beyond the plan, Down is a blackout switch: while set, every round
// trip fails transiently without consuming a plan access — the
// observable shape of a killed or blacked-out replica process. The
// switch makes replica death injectable mid-traffic and reversible,
// which is what fleet failover tests need.
type RoundTripper struct {
	injector
	base http.RoundTripper
	down atomic.Bool
}

// NewRoundTripper wraps an HTTP transport with the plan's faults. A nil
// base uses http.DefaultTransport.
func NewRoundTripper(base http.RoundTripper, plan Plan) (*RoundTripper, error) {
	if base == nil {
		base = http.DefaultTransport
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &RoundTripper{injector: newInjector(plan), base: base}, nil
}

// SetDown flips the blackout switch and returns the previous state.
// While down, every round trip fails with a transient error — the
// replica behind this transport is unreachable, as if its process were
// killed. Lifting the switch restores the plan-driven behavior.
func (rt *RoundTripper) SetDown(down bool) bool {
	return rt.down.Swap(down)
}

// Down reports the blackout switch.
func (rt *RoundTripper) Down() bool { return rt.down.Load() }

// RoundTrip implements http.RoundTripper with injection. Errors it
// returns are wrapped by http.Client into *url.Error, which unwraps, so
// IsTransient classifies them through the client seam.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt.down.Load() {
		return nil, fmt.Errorf("fault: replica blackout (%s %s): %w", req.Method, req.URL.Path, ErrTransient)
	}
	o, armed := rt.decide(true)
	if !armed {
		return rt.base.RoundTrip(req)
	}
	if o.spike {
		rt.sleep()
	}
	if o.fail {
		return nil, fmt.Errorf("fault: injected transport error at access %d (%s %s): %w",
			o.access, req.Method, req.URL.Path, ErrTransient)
	}
	return rt.base.RoundTrip(req)
}
