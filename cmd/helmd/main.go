// Command helmd is the live serving daemon over the executable engine:
// internal/server behind a real listener, with the full operational
// lifecycle wired to process signals.
//
//	POST /v1/generate — run a generation (JSON in/out)
//	GET  /healthz     — liveness
//	GET  /readyz      — readiness (503 once draining)
//	GET  /statz       — counter snapshot
//
// SIGHUP hot-reloads the checkpoint: the file is re-opened and
// CRC-verified, then swapped in atomically; in-flight requests finish
// on the generation they started on. SIGINT/SIGTERM drain gracefully:
// /readyz flips unhealthy, admission stops, queued and in-flight
// requests finish under -drain-timeout, then stragglers are
// force-cancelled. A clean drain exits 0.
//
// Usage:
//
//	helmd -hidden 64 -blocks 4 -batch-seqs 4 -addr 127.0.0.1:8080
//	helmd -ckpt /tmp/m.hlmc -hidden 64 -blocks 4 -fault-rate 0.05
//
// Without -ckpt, helmd synthesizes a checkpoint for the flag-described
// architecture in a temp dir and serves that — the self-contained mode
// the e2e smoke test uses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"helmsim/internal/infer"
	"helmsim/internal/model"
	"helmsim/internal/server"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options carries the parsed flag set into run.
type options struct {
	addr string
	ckpt string

	arch     string
	hidden   int
	heads    int
	blocks   int
	vocab    int
	seed     int64
	quantize bool

	workers    int
	maxQueue   int
	maxWait    time.Duration
	maxTokens  int
	reqTimeout time.Duration
	retries    int
	jitterSeed int64

	cost              server.CostConfig
	budgetInteractive int
	budgetRAG         int
	budgetBatch       int

	drainTimeout    time.Duration
	drainRetryAfter time.Duration

	faultRate float64
	faultSeed int64

	breaker server.BreakerConfig
	batch   server.BatchConfig
}

// realMain is the whole daemon behind a re-entrant seam: the e2e test
// drives it in-process, delivering real signals to the test binary.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("helmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	fs.StringVar(&o.ckpt, "ckpt", "", "checkpoint to serve (default: synthesize one in a temp dir)")
	fs.StringVar(&o.arch, "arch", "opt", "architecture: opt, llama")
	fs.IntVar(&o.hidden, "hidden", 64, "hidden dimension")
	fs.IntVar(&o.heads, "heads", 4, "attention heads")
	fs.IntVar(&o.blocks, "blocks", 4, "decoder blocks")
	fs.IntVar(&o.vocab, "vocab", 512, "vocabulary size")
	fs.Int64Var(&o.seed, "seed", 1, "weight seed for a synthesized checkpoint")
	fs.BoolVar(&o.quantize, "quantize", false, "synthesize the checkpoint 4-bit quantized")
	fs.IntVar(&o.workers, "workers", 0, "requests handed to the batcher at once (0 = match -batch-seqs)")
	fs.IntVar(&o.maxQueue, "max-queue", 64, "admission bound on the waiting line (full line sheds 429)")
	fs.DurationVar(&o.maxWait, "max-wait", 0, "renege bound on queueing delay (0 = unbounded)")
	fs.IntVar(&o.maxTokens, "max-tokens", 64, "per-request generation cap (and default)")
	fs.DurationVar(&o.reqTimeout, "request-timeout", 30*time.Second, "server-side deadline per admitted request (0 = none)")
	fs.IntVar(&o.retries, "retries", 3, "max foreground retries per transiently failed fetch")
	fs.Int64Var(&o.jitterSeed, "backoff-jitter", 0, "seed for deterministic retry-backoff jitter (0 = no jitter); give each replica its own seed so fleet retries desynchronize")
	fs.IntVar(&o.cost.TokenBudget, "token-budget", 0, "admitted-cost backlog cap in estimated tokens (0 disables cost admission and brownout)")
	fs.IntVar(&o.budgetInteractive, "budget-interactive", 0, "interactive-class backlog cap in estimated tokens (0 = uncapped)")
	fs.IntVar(&o.budgetRAG, "budget-rag", 0, "rag-class backlog cap in estimated tokens (0 = uncapped)")
	fs.IntVar(&o.budgetBatch, "budget-batch", 0, "batch-class backlog cap in estimated tokens (0 = uncapped)")
	fs.Float64Var(&o.cost.BrownoutHigh, "brownout-high", 0, "backlog fraction of -token-budget that sustains into brownout (0 = default 0.8)")
	fs.Float64Var(&o.cost.BrownoutLow, "brownout-low", 0, "backlog fraction at which brownout exits (0 = default 0.5)")
	fs.IntVar(&o.cost.BrownoutSustain, "brownout-sustain", 0, "consecutive over-high arrivals before brownout escalates (0 = default 8)")
	fs.DurationVar(&o.cost.BrownoutRetryAfter, "brownout-retry-after", 0, "Retry-After advertised on brownout 503s (0 = default 2s)")
	fs.Int64Var(&o.cost.PredictorSeed, "predictor-seed", 0, "output-length predictor seed (0 = default 1); replicas of one fleet should share it")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful-drain budget before in-flight requests are cancelled")
	fs.DurationVar(&o.drainRetryAfter, "drain-retry-after", time.Second, "Retry-After advertised on drain-mode 503s (readyz and shed admissions)")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "inject transient read errors at this per-tensor probability (chaos mode)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 1, "base seed for the fault plan (each reload advances it)")
	fs.IntVar(&o.breaker.Window, "breaker-window", 0, "breaker sliding-window size (0 = default)")
	fs.IntVar(&o.breaker.MinSamples, "breaker-min-samples", 0, "observations before the breaker may trip (0 = default)")
	fs.Float64Var(&o.breaker.TripRate, "breaker-trip-rate", 0, "transient-failure rate that trips the breaker (0 = default)")
	fs.DurationVar(&o.breaker.Cooldown, "breaker-cooldown", 0, "open-state dwell before a half-open probe (0 = default)")
	fs.IntVar(&o.breaker.Probes, "breaker-probes", 0, "concurrent half-open probes (0 = default)")
	fs.IntVar(&o.batch.MaxSeqs, "batch-seqs", 0, "concurrent sequences per decode step of the continuous batcher (0 = default 8)")
	fs.IntVar(&o.batch.KVPages, "kv-pages", 0, "paged KV pool size in pages (0 = default)")
	fs.IntVar(&o.batch.PageTokens, "page-tokens", 0, "KV page granularity in tokens (0 = default)")
	fs.BoolVar(&o.batch.DisablePrefixReuse, "no-prefix-reuse", false, "disable the shared-prefix KV page cache")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "helmd:", err)
		return 1
	}
	return 0
}

func run(ctx context.Context, o options, stdout, stderr io.Writer) error {
	cfg, err := model.Mini(o.arch, o.hidden, o.heads, o.blocks, o.vocab)
	if err != nil {
		return err
	}
	ckpt := o.ckpt
	if ckpt == "" {
		dir, err := os.MkdirTemp("", "helmd")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ckpt = filepath.Join(dir, cfg.Name+".hlmc")
		if err := infer.SynthesizeCheckpoint(ckpt, cfg, o.seed, o.quantize); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "helmd: synthesized %s (%d params) at %s\n", cfg.Name, cfg.ParamCount(), ckpt)
	}

	cost := o.cost
	if o.budgetInteractive > 0 || o.budgetRAG > 0 || o.budgetBatch > 0 {
		cost.ClassBudgets = map[string]int{}
		if o.budgetInteractive > 0 {
			cost.ClassBudgets["interactive"] = o.budgetInteractive
		}
		if o.budgetRAG > 0 {
			cost.ClassBudgets["rag"] = o.budgetRAG
		}
		if o.budgetBatch > 0 {
			cost.ClassBudgets["batch"] = o.budgetBatch
		}
	}
	retry := infer.Retry{Max: o.retries}
	if o.jitterSeed != 0 {
		retry.Backoff = infer.JitteredBackoff(o.jitterSeed)
	}

	// The daemon anchors on Background, not the signal context: SIGTERM
	// must trigger a graceful drain, with force-cancel reserved for the
	// drain deadline — not fire the moment the signal lands.
	s, err := server.New(context.Background(), server.Config{
		Model:           cfg,
		OpenStore:       server.FileOpener(ckpt, o.faultRate, o.faultSeed),
		Workers:         o.workers,
		MaxQueue:        o.maxQueue,
		MaxWait:         o.maxWait,
		MaxTokens:       o.maxTokens,
		RequestTimeout:  o.reqTimeout,
		Retry:           retry,
		Breaker:         o.breaker,
		Batch:           o.batch,
		Cost:            cost,
		DrainRetryAfter: o.drainRetryAfter,
	})
	if err != nil {
		return err
	}

	err = server.Daemon{
		Addr:    o.addr,
		Handler: s.Handler(),
		// The smoke test (and any launcher using port 0) parses this line.
		Listening: func(addr net.Addr) { fmt.Fprintf(stdout, "helmd: listening on %s\n", addr) },
		Reload: func() {
			if err := s.Reload(); err != nil {
				fmt.Fprintln(stderr, "helmd: reload failed, serving generation unchanged:", err)
			} else {
				fmt.Fprintf(stderr, "helmd: reloaded checkpoint, now serving generation %d\n", s.Stats().Generation)
			}
		},
		// Draining stops admitting (readyz reports 503) and finishes
		// in-flight work.
		Drain: func(ctx context.Context) error {
			fmt.Fprintln(stderr, "helmd: draining")
			return s.Drain(ctx)
		},
		DrainTimeout: o.drainTimeout,
	}.Run(ctx)

	// Drained, every arrival has its bucket: the ones not admitted shed.
	st := s.Stats()
	fmt.Fprintf(stdout, "helmd: drained: served %d, failed %d, shed %d, force-cancelled %d, reloads %d, transients absorbed %d\n",
		st.Served, st.Failed, st.Arrivals-st.Admitted, st.ForceCancelled, st.Reloads, st.StoreTransients)
	return err
}
