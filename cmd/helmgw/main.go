// Command helmgw is the fleet gateway: internal/gateway behind a real
// listener, fronting N serving replicas with health probing, failover
// retries, and administrative drain-out.
//
//	POST /v1/generate            — route a generation across the fleet
//	GET  /healthz                — gateway liveness
//	GET  /readyz                 — gateway readiness (503 once draining)
//	GET  /fleetz                 — fleet ledger + per-replica snapshot
//	POST /admin/drain?replica=   — take a replica out of rotation
//	POST /admin/undrain?replica= — return it to rotation
//
// Two fleet shapes:
//
//   - In-process (default): -replicas N boots N server.Server replicas
//     inside this process over one shared checkpoint (synthesized
//     unless -ckpt names one), fronted without sockets. SIGHUP
//     hot-reloads every replica's checkpoint; SIGINT/SIGTERM drain the
//     gateway first, then every replica.
//
//   - Remote: -backends http://host1:8080,http://host2:8080 fronts
//     already-running helmd daemons. The gateway owns only routing and
//     health; reloads and drains of the daemons stay with their own
//     operators (SIGHUP is a no-op).
//
// Usage:
//
//	helmgw -replicas 3 -hidden 64 -blocks 4 -addr 127.0.0.1:9090
//	helmgw -replicas 3 -route weighted -weights 3,1,1 -fault-rate 0.05
//	helmgw -backends http://10.0.0.1:8080,http://10.0.0.2:8080 -route least-load
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"helmsim/internal/gateway"
	"helmsim/internal/infer"
	"helmsim/internal/model"
	"helmsim/internal/server"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options carries the parsed flag set into run.
type options struct {
	addr     string
	backends string
	replicas int
	route    string
	weights  string

	maxFailovers    int
	forwardTimeout  time.Duration
	probeInterval   time.Duration
	probeTimeout    time.Duration
	failThreshold   int
	passThreshold   int
	drainTimeout    time.Duration
	drainRetryAfter time.Duration

	ckpt     string
	arch     string
	hidden   int
	heads    int
	blocks   int
	vocab    int
	seed     int64
	quantize bool

	workers   int
	maxQueue  int
	maxTokens int
	retries   int

	faultRate float64
	faultSeed int64

	breaker server.BreakerConfig
}

// realMain is the whole gateway behind a re-entrant seam: the e2e test
// drives it in-process, delivering real signals to the test binary.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("helmgw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "gateway listen address (port 0 picks a free port)")
	fs.StringVar(&o.backends, "backends", "", "comma-separated helmd base URLs to front (remote fleet mode)")
	fs.IntVar(&o.replicas, "replicas", 3, "in-process replicas to boot when -backends is empty")
	fs.StringVar(&o.route, "route", gateway.RouteRoundRobin, "routing algorithm: round-robin, least-load, weighted")
	fs.StringVar(&o.weights, "weights", "", "comma-separated per-replica weights for -route weighted (default all 1)")
	fs.IntVar(&o.maxFailovers, "max-failovers", 0, "failover retries per request onto distinct replicas (0 = fleet size - 1, negative disables)")
	fs.DurationVar(&o.forwardTimeout, "forward-timeout", 30*time.Second, "per-attempt deadline for one replica forward")
	fs.DurationVar(&o.probeInterval, "probe-interval", 250*time.Millisecond, "health probe period")
	fs.DurationVar(&o.probeTimeout, "probe-timeout", 2*time.Second, "per-probe HTTP deadline")
	fs.IntVar(&o.failThreshold, "fail-threshold", 3, "consecutive probe failures that evict a replica from rotation")
	fs.IntVar(&o.passThreshold, "pass-threshold", 1, "consecutive probe passes that restore an evicted replica")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful-drain budget (gateway, then each in-process replica)")
	fs.DurationVar(&o.drainRetryAfter, "drain-retry-after", time.Second, "Retry-After advertised on draining and no-healthy-replica 503s")
	fs.StringVar(&o.ckpt, "ckpt", "", "checkpoint every in-process replica serves (default: synthesize one in a temp dir)")
	fs.StringVar(&o.arch, "arch", "opt", "architecture: opt, llama")
	fs.IntVar(&o.hidden, "hidden", 64, "hidden dimension")
	fs.IntVar(&o.heads, "heads", 4, "attention heads")
	fs.IntVar(&o.blocks, "blocks", 4, "decoder blocks")
	fs.IntVar(&o.vocab, "vocab", 512, "vocabulary size")
	fs.Int64Var(&o.seed, "seed", 1, "weight seed for a synthesized checkpoint")
	fs.BoolVar(&o.quantize, "quantize", false, "synthesize the checkpoint 4-bit quantized")
	fs.IntVar(&o.workers, "workers", 0, "requests each in-process replica hands its batcher at once (0 = the default batch width)")
	fs.IntVar(&o.maxQueue, "max-queue", 64, "per-replica admission bound on the waiting line")
	fs.IntVar(&o.maxTokens, "max-tokens", 64, "per-request generation cap (and default)")
	fs.IntVar(&o.retries, "retries", 3, "max foreground retries per transiently failed fetch, per replica")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "inject transient read errors at this per-tensor probability in every in-process replica (chaos mode)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "base seed for the fault plans (each replica and reload advances it)")
	fs.IntVar(&o.breaker.Window, "breaker-window", 0, "per-replica breaker sliding-window size (0 = default)")
	fs.IntVar(&o.breaker.MinSamples, "breaker-min-samples", 0, "observations before a breaker may trip (0 = default)")
	fs.Float64Var(&o.breaker.TripRate, "breaker-trip-rate", 0, "failure rate that trips a breaker (0 = default)")
	fs.DurationVar(&o.breaker.Cooldown, "breaker-cooldown", 0, "open-state dwell before a half-open probe (0 = default)")
	fs.IntVar(&o.breaker.Probes, "breaker-probes", 0, "concurrent half-open probes (0 = default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "helmgw:", err)
		return 1
	}
	return 0
}

// parseWeights resolves the -weights flag against the fleet size.
func parseWeights(s string, n int) ([]int, error) {
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	if s == "" {
		return weights, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-weights has %d entries for %d replicas", len(parts), n)
	}
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-weights entry %d: %q is not a positive integer", i, p)
		}
		weights[i] = w
	}
	return weights, nil
}

// fleet is what run boots behind the gateway: zero or more in-process
// replicas (empty in remote mode) plus their backend configs.
type fleet struct {
	servers []*server.Server
	names   []string
	cfgs    []gateway.BackendConfig
}

// buildFleet assembles the backend set. In-process replicas share one
// checkpoint file and get independent fault plans; the gw pointer is
// read at drain time so each replica's own graceful drain pulls it from
// gateway rotation immediately (the push-based drain hook).
func buildFleet(o options, ckpt string, gw *atomic.Pointer[gateway.Gateway], stderr io.Writer) (*fleet, error) {
	f := &fleet{}
	if o.backends != "" {
		for i, raw := range strings.Split(o.backends, ",") {
			u := strings.TrimSpace(raw)
			if u == "" {
				return nil, fmt.Errorf("-backends entry %d is empty", i)
			}
			name := fmt.Sprintf("b%d", i)
			fmt.Fprintf(stderr, "helmgw: backend %s -> %s\n", name, u)
			f.names = append(f.names, name)
			f.cfgs = append(f.cfgs, gateway.BackendConfig{Name: name, URL: u, Breaker: o.breaker})
		}
		return f, nil
	}

	if o.replicas < 1 {
		return nil, fmt.Errorf("-replicas %d < 1", o.replicas)
	}
	cfg, err := model.Mini(o.arch, o.hidden, o.heads, o.blocks, o.vocab)
	if err != nil {
		return nil, err
	}
	weights, err := parseWeights(o.weights, o.replicas)
	if err != nil {
		return nil, err
	}
	// One opener for the fleet: each replica's first open and every
	// reload draws the next fault seed, in the order they open.
	openStore := server.FileOpener(ckpt, o.faultRate, o.faultSeed)
	for i := 0; i < o.replicas; i++ {
		name := fmt.Sprintf("r%d", i)
		// The replica anchors on Background like helmd's daemon: SIGTERM
		// must drain it gracefully, not cancel it outright.
		s, err := server.New(context.Background(), server.Config{
			Model:           cfg,
			OpenStore:       openStore,
			Workers:         o.workers,
			MaxQueue:        o.maxQueue,
			MaxTokens:       o.maxTokens,
			Retry:           infer.Retry{Max: o.retries},
			Breaker:         o.breaker,
			DrainRetryAfter: o.drainRetryAfter,
			OnStateChange: func(state string) {
				if state != "draining" {
					return
				}
				if g := gw.Load(); g != nil {
					if b := g.Backend(name); b != nil {
						b.MarkDraining()
					}
				}
			},
		})
		if err != nil {
			drainFleet(f, time.Second, io.Discard)
			return nil, fmt.Errorf("replica %s: %w", name, err)
		}
		f.servers = append(f.servers, s)
		f.names = append(f.names, name)
		f.cfgs = append(f.cfgs, gateway.BackendConfig{
			Name:    name,
			URL:     "http://" + name,
			Client:  &http.Client{Transport: gateway.HandlerTransport{Handler: s.Handler()}},
			Weight:  weights[i],
			Breaker: o.breaker,
		})
	}
	return f, nil
}

// drainFleet drains every in-process replica in parallel under one
// shared budget.
func drainFleet(f *fleet, budget time.Duration, stderr io.Writer) {
	var wg sync.WaitGroup
	for i, s := range f.servers {
		wg.Add(1)
		go func(name string, s *server.Server) {
			defer wg.Done()
			// Drains run after the signal ctx has ended, so the budget
			// is a fresh deadline.
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				fmt.Fprintf(stderr, "helmgw: replica %s drain: %v\n", name, err)
			}
		}(f.names[i], s)
	}
	wg.Wait()
}

func run(ctx context.Context, o options, stdout, stderr io.Writer) error {
	// Fail the cheap flag mistakes before synthesizing checkpoints or
	// booting replicas.
	if _, err := gateway.NewRouter(o.route); err != nil {
		return err
	}
	if o.backends == "" && o.replicas < 1 {
		return fmt.Errorf("-replicas %d < 1", o.replicas)
	}
	ckpt := o.ckpt
	if o.backends == "" && ckpt == "" {
		cfg, err := model.Mini(o.arch, o.hidden, o.heads, o.blocks, o.vocab)
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp("", "helmgw")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ckpt = filepath.Join(dir, cfg.Name+".hlmc")
		if err := infer.SynthesizeCheckpoint(ckpt, cfg, o.seed, o.quantize); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "helmgw: synthesized %s (%d params) at %s, shared by %d replicas\n",
			cfg.Name, cfg.ParamCount(), ckpt, o.replicas)
	}

	var gwPtr atomic.Pointer[gateway.Gateway]
	f, err := buildFleet(o, ckpt, &gwPtr, stderr)
	if err != nil {
		return err
	}
	defer drainFleet(f, o.drainTimeout, stderr)

	// The gateway anchors on Background for the same reason the replicas
	// do: the signal starts a graceful drain, it does not cut relays off.
	g, err := gateway.New(context.Background(), gateway.Config{
		Backends:        f.cfgs,
		Route:           o.route,
		MaxFailovers:    o.maxFailovers,
		ForwardTimeout:  o.forwardTimeout,
		DrainRetryAfter: o.drainRetryAfter,
		Probe: gateway.ProbeConfig{
			Interval: o.probeInterval, Timeout: o.probeTimeout,
			FailThreshold: o.failThreshold, PassThreshold: o.passThreshold,
		},
	})
	if err != nil {
		return err
	}
	gwPtr.Store(g)

	probeCtx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	probesDone := g.Start(probeCtx)

	err = server.Daemon{
		Addr:    o.addr,
		Handler: g.Handler(),
		// Launchers using port 0 (and the e2e test) parse this line.
		Listening: func(addr net.Addr) {
			fmt.Fprintf(stdout, "helmgw: listening on %s, fronting %d replicas (%s)\n", addr, len(f.cfgs), g.Router())
		},
		Reload: func() {
			if len(f.servers) == 0 {
				fmt.Fprintln(stderr, "helmgw: SIGHUP ignored: remote daemons own their own reloads")
				return
			}
			for i, s := range f.servers {
				if err := s.Reload(); err != nil {
					fmt.Fprintf(stderr, "helmgw: replica %s reload failed, serving generation unchanged: %v\n", f.names[i], err)
				} else {
					fmt.Fprintf(stderr, "helmgw: replica %s reloaded, now serving generation %d\n", f.names[i], s.Stats().Generation)
				}
			}
		},
		// Outermost first: the gateway stops admitting and finishes
		// in-flight relays, the probes stop, then the replicas drain
		// (deferred above) after the listener has closed.
		Drain: func(ctx context.Context) error {
			fmt.Fprintln(stderr, "helmgw: draining gateway then fleet")
			err := g.Drain(ctx)
			stopProbes()
			<-probesDone
			return err
		},
		DrainTimeout: o.drainTimeout,
	}.Run(ctx)

	st := g.Stats()
	fmt.Fprintf(stdout, "helmgw: drained: arrivals %d, routed %d, failover retries %d, shed (no healthy %d, draining %d, bad %d), conserved %v\n",
		st.Arrivals, st.Routed, st.RetriedFailover, st.ShedNoHealthyBackend, st.ShedDraining, st.BadRequests, st.Conserved())
	for _, bs := range st.Backends {
		fmt.Fprintf(stdout, "helmgw:   %s: attempts %d, finalized %d, served %d, failovers %d, probes %d (failed %d)\n",
			bs.Name, bs.Attempts, bs.Finalized, bs.Served, bs.Failovers, bs.Probes, bs.ProbeFailures)
	}
	return err
}
