// Command bench is the one benchmark of the executable stack: the
// paper's §III-B latency protocol on the out-of-core and the resident
// engine, batched offline throughput, and open-loop fleet latency, each
// measured end to end without instrumentation and, in a second traced
// pass, layer by layer from wrappers the harness owns. See README.md.
//
//	bench --workload ooc_latency --seed 1 --seconds 12 --trace 0   one run, result as the last line
//	bench                                                          all workloads, both passes, out/result.json
//	bench -compare A.json B.json                                   regression check between two result files
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
)

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"ooc_latency", "paper protocol (128 in, 21 out, batch 1) on the prefetched engine over the mmap'd 4-bit checkpoint: store chain, dequant, prefetch overlap and kernels; no serving layer"},
	{"resident_latency", "same requests on f32 weights in memory: no file, dequant or prefetch, so it is the bypass for every store-chain change and the workload where kernels are all of the time"},
	{"batch_offline", "fixed request list kept 8 outstanding on batcher + paged KV pool + the same out-of-core engine: about 5 sequences share each weight fetch, so a batch-1 win that redoes work per sequence loses here"},
	{"fleet_open", "open-loop Poisson 25 req/s, three classes, through gateway and 2 in-process replicas on a tiny model: routing, admission, queueing, batching and prefix reuse move the numbers, not kernels"},
}

// endToEnd are measured with nothing of the harness inside the stack,
// and every time among them is scaled to reference host speed (speed.go).
// ttft/tbt are per Step call on the two latency workloads; Submit and
// HTTP return a whole token stream, so there ttft is the reply time
// (equal to req_ms_p50 until the serving path streams) and tbt the
// reply time per token carried.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ttft_ms_p50", "ms", "lower", 0.25},
	{"tbt_ms_p50", "ms", "lower", 0.25},
	{"req_ms_p50", "ms", "lower", 0.25},
	{"tokens_per_s", "tok/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

var perLayer = []metricDef{
	{Name: "tensor.gemv_decode_us", Unit: "us", Better: "lower"},
	{Name: "tensor.gemm_prefill_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.logits_us", Unit: "us", Better: "lower"},
	{Name: "tensor.gemv_flops_per_byte", Unit: "flop/B", Better: "higher"},
	{Name: "quant.dequant_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "quant.packed_bytes_per_elem", Unit: "B", Better: "lower"},
	{Name: "store.fetch_calls_per_step", Unit: "count", Better: "lower"},
	{Name: "store.fetch_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "store.fetch_mb_per_step", Unit: "MB", Better: "lower"},
	{Name: "store.fetch_errors", Unit: "count", Better: "lower"},
	{Name: "prefetch.hit_rate", Unit: "share", Better: "higher"},
	{Name: "prefetch.degraded_fetches", Unit: "count", Better: "lower"},
	{Name: "prefetch.hidden_share", Unit: "share", Better: "higher"},
	{Name: "step.weight_fetches_per_step", Unit: "count", Better: "lower"},
	{Name: "step.allocs_per_token", Unit: "count", Better: "lower"},
	{Name: "step.kb_alloc_per_token", Unit: "kB", Better: "lower"},
	{Name: "step.tbt_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "kvcache.prefix_hit_rate", Unit: "share", Better: "higher"},
	{Name: "kvcache.shared_token_share", Unit: "share", Better: "higher"},
	{Name: "kvcache.cow_copies", Unit: "count", Better: "lower"},
	{Name: "kvcache.evictions", Unit: "count", Better: "lower"},
	{Name: "kvcache.page_utilization_mean", Unit: "share", Better: "higher"},
	{Name: "batch.steps", Unit: "count", Better: "lower"},
	{Name: "batch.avg_occupancy", Unit: "count", Better: "higher"},
	{Name: "batch.tokens_per_step", Unit: "count", Better: "higher"},
	{Name: "batch.steps_per_request", Unit: "count", Better: "lower"},
	{Name: "batch.preemptions", Unit: "count", Better: "lower"},
	{Name: "batch.retries", Unit: "count", Better: "lower"},
	{Name: "server.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.service_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.shed_share", Unit: "share", Better: "lower"},
	{Name: "server.ledger_conserved", Unit: "bool", Better: "higher"},
	{Name: "gateway.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gateway.attempts_per_request", Unit: "count", Better: "lower"},
	{Name: "gateway.failovers_per_request", Unit: "count", Better: "lower"},
	{Name: "gateway.route_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "gateway.ledger_conserved", Unit: "bool", Better: "higher"},
	{Name: "client.sent", Unit: "count", Better: "higher"},
	{Name: "client.ok", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "client.slo_attainment", Unit: "share", Better: "higher"},
	{Name: "client.dispatch_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "client.dispatch_lag_ms_max", Unit: "ms", Better: "lower"},
	{Name: "client.e2e_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "client.e2e_ms_p50.interactive", Unit: "ms", Better: "lower"},
	{Name: "client.e2e_ms_p50.rag", Unit: "ms", Better: "lower"},
	{Name: "client.e2e_ms_p50.batch", Unit: "ms", Better: "lower"},
	{Name: "core.sim_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sim_digest_match", Unit: "bool", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
}

// exactMetrics are counts that two runs of one commit on one seed must
// reproduce; -compare checks them for equality to three decimals (the
// fleet's engines cannot be settled from outside, so a prefetch in
// flight at an edge moves the fourth).
var exactMetrics = []string{"step.weight_fetches_per_step", "store.fetch_calls_per_step", "gateway.attempts_per_request", "client.sent"}

// primaryMetric is the end-to-end metric trace.overhead_pct is taken on.
var primaryMetric = map[string]string{
	"ooc_latency": "tbt_ms_p50", "resident_latency": "tbt_ms_p50",
	"batch_offline": "tokens_per_s", "fleet_open": "req_ms_p50",
}

// runSeconds is BENCHMARK.json's run_seconds and the default window.
const runSeconds = 16

// spec is BENCHMARK.json.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func benchmarkSpec() spec {
	return spec{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints: exactly these four keys.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is what a run leaves in out/ for the suite to collect.
type runRecord struct {
	outcome
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Samples  map[string]int `json:"samples,omitempty"`
	Digest   string         `json:"token_digest"`
	Problems []string       `json:"problems,omitempty"`
	// HostSlowdown is the median host.slowdown of the untraced pass: a
	// time metric times it is about the time the run really took.
	HostSlowdown float64 `json:"host_slowdown,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", runSeconds, "size of the work list: what runs for about this long on the 2-core reference box")
		trace    = flag.Int("trace", 0, "1: traced pass, per-layer metrics; 0: untraced pass, end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "tiny models and lists (what the unit test runs)")
		outDir   = flag.String("out", "out", "directory for result and trace files")
		compare  = flag.Bool("compare", false, "compare two result.json files given as arguments")
		specOut  = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *specOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(benchmarkSpec())
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two result.json files")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *workload == "":
		err = runSuite(ctx, *seed, *seconds, *smoke, *outDir)
	default:
		sz := fullSizes()
		if *smoke {
			sz = smokeSizes()
		}
		err = runAndReport(ctx, *workload, *seed, *seconds, *trace == 1, sz, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one pass of one workload. The untraced pass is the
// whole work list with nothing of the harness inside the stack. The
// traced pass splits the list between an unwrapped reference and a
// wrapped stack in the same process, so trace.overhead_pct compares
// like with like.
func runWorkload(ctx context.Context, name string, ev env, seconds float64, traced bool, outDir string) (*runRecord, error) {
	run := func(w float64, reps int, tr *tracer) (*phase, error) {
		switch name {
		case "ooc_latency", "resident_latency":
			return runLatency(ctx, ev, name == "ooc_latency", true, w, reps, tr)
		case "batch_offline":
			return runBatch(ctx, ev, w, reps, tr)
		case "fleet_open":
			return runFleet(ctx, ev, w, reps, tr)
		}
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	rec := &runRecord{Workload: name, Seed: ev.seed, Seconds: seconds, Traced: traced}
	rec.Metrics = map[string]metric{}

	if !traced {
		p, err := run(seconds, ev.sz.setupReps, nil)
		if err != nil {
			return nil, err
		}
		p.e2e["peak_rss_mb"] = peakRSSMB()
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = metric{p.e2e[d.Name], d.Unit}
		}
		rec.absorb(p)
		rec.Samples, rec.HostSlowdown = p.samples, p.layer["host.slowdown"]
		return rec, nil
	}

	passes := 2.0
	if name == "ooc_latency" {
		passes = 3
	}
	ref, err := run(seconds/passes, 1, nil)
	if err != nil {
		return nil, err
	}
	rec.absorb(ref)
	tr := newTracer()
	tp, err := run(seconds/passes, 1, tr)
	if err != nil {
		return nil, err
	}
	rec.absorb(tp)

	layer := maps.Clone(tp.layer)
	maps.Copy(layer, ref.layer) // counters come from the unwrapped stack
	prim := primaryMetric[name]
	over := ratio(tp.e2e[prim]-ref.e2e[prim], ref.e2e[prim])
	if prim == "tokens_per_s" {
		over = -over
	}
	layer["trace.overhead_pct"] = 100 * over

	if name == "ooc_latency" {
		// The same work on the plain engine, where every fetch is in the
		// step's way: what share of that store time does prefetch hide?
		plain, err := runLatency(ctx, ev, true, false, seconds/passes, 1, tr)
		if err != nil {
			return nil, err
		}
		rec.absorb(plain)
		layer["prefetch.hidden_share"] = ratio(plain.decodeWallPerGen-tp.decodeWallPerGen, plain.decodeBusyPerGen)
		if a, b := tp.layer["store.fetch_calls_per_step"], tp.layer["step.weight_fetches_per_step"]; a != b {
			rec.Problems = append(rec.Problems, fmt.Sprintf("span accounting: store wrapper saw %.3f fetches/step, engine counted %.3f", a, b))
		}
	}
	kernels, err := kernelMetrics(ev.sz.ooc, ev.sz.kernelPromptLen)
	if err != nil {
		return nil, err
	}
	maps.Copy(layer, kernels)
	simMS, digest, err := simSweep(ctx)
	if err != nil {
		return nil, err
	}
	layer["core.sim_sweep_ms"] = simMS
	layer["core.sim_digest_match"] = boolMetric(digest == simDigest)
	if digest != simDigest {
		fmt.Fprintf(os.Stderr, "bench: simulator sweep digest %s differs from the recorded %s (reported, not fatal)\n", digest, simDigest)
	}
	layer["trace.spans"] = float64(len(tr.spans))
	for _, d := range perLayer {
		rec.Metrics[d.Name] = metric{layer[d.Name], d.Unit}
	}
	if err := tr.writeChrome(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	return rec, nil
}

// absorb folds one phase's verdicts into the record.
func (r *runRecord) absorb(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Problems = append(r.Problems, p.problems...)
	r.Digest = fmt.Sprintf("%016x", p.digest)
}

func runAndReport(ctx context.Context, name string, seed int64, seconds float64, traced bool, sz sizes, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec, err := runWorkload(ctx, name, env{sz: sz, seed: seed, dir: dir, solo: map[string][]int{}}, seconds, traced, outDir)
	if err != nil {
		return err
	}
	rec.Correct = len(rec.Problems) == 0

	for _, n := range slices.Sorted(maps.Keys(rec.Metrics)) {
		m := rec.Metrics[n]
		line := fmt.Sprintf("%-18s %-32s %14.4f %s", name, n, m.Value, m.Unit)
		if c, ok := rec.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Println(line)
	}
	if !traced {
		fmt.Printf("%-18s times are at reference host speed; this run's host was %.2f× slower\n", name, rec.HostSlowdown)
	}
	fmt.Printf("%-18s token digest %s, %d attempted, %d failed\n", name, rec.Digest, rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", p)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, recordFile(name, traced)), data, 0o644); err != nil {
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%s: %d correctness checks failed", name, len(rec.Problems))
	}
	last, err := json.Marshal(rec.outcome)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func recordFile(workload string, traced bool) string {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	return "run-" + workload + "-" + pass + ".json"
}

// ---- suite ------------------------------------------------------------

// suiteResult is out/result.json.
type suiteResult struct {
	Host struct {
		NumCPU     int    `json:"nproc"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GoVersion  string `json:"go"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
	} `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
	Samples  map[string]int    `json:"samples"`
	Digest   string            `json:"token_digest"`
	// Attempted and Failed are the untraced pass's.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// runSuite runs every workload, untraced then traced, each in its own
// child process of this binary, so no pass inherits another's heap.
func runSuite(ctx context.Context, seed int64, seconds float64, smoke bool, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var res suiteResult
	res.Host.NumCPU, res.Host.GoMaxProcs = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	res.Host.GoVersion, res.Host.GOOS, res.Host.GOARCH = runtime.Version(), runtime.GOOS, runtime.GOARCH
	res.Seed, res.Seconds, res.Workloads = seed, seconds, map[string]*suiteWorkload{}
	for _, w := range workloads {
		sw := &suiteWorkload{}
		res.Workloads[w.Name] = sw
		for _, traced := range []bool{false, true} {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", outDir, "-trace", "0"}
			if traced {
				args[len(args)-1] = "1"
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (traced=%v): %w", w.Name, traced, err)
			}
			data, err := os.ReadFile(filepath.Join(outDir, recordFile(w.Name, traced)))
			if err != nil {
				return err
			}
			var rec runRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				return err
			}
			if traced {
				sw.PerLayer = rec.Metrics
			} else {
				sw.EndToEnd, sw.Samples, sw.Digest = rec.Metrics, rec.Samples, rec.Digest
				sw.Attempted, sw.Failed = rec.Attempted, rec.Failed
			}
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// ---- compare ----------------------------------------------------------

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse B is than A and the bound, and fails beyond a bound or
// when a count that must repeat exactly differs.
func compareFiles(pathA, pathB string) error {
	a, err := loadSuite(pathA)
	if err != nil {
		return err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("%-18s %-30s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-18s missing from one file\n", w.Name)
			bad++
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Printf("%-18s %-30s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Printf("%-18s %-30s %14d %14d  MORE FAILURES\n", w.Name, "failed", wa.Failed, wb.Failed)
			bad++
		}
		if a.Seed != b.Seed || a.Seconds != b.Seconds {
			continue // what follows is exact only for identical work
		}
		if wa.Digest != wb.Digest {
			fmt.Printf("%-18s %-30s %14s %14s  DIFFERS\n", w.Name, "token digest", wa.Digest[:12], wb.Digest[:12])
			bad++
		}
		for _, n := range exactMetrics {
			va, vb := wa.PerLayer[n].Value, wb.PerLayer[n].Value
			verdict := ""
			if math.Round(va*1e3) != math.Round(vb*1e3) {
				verdict = "  DIFFERS"
				bad++
			}
			fmt.Printf("%-18s %-30s %14.4f %14.4f %9s %7s%s\n", w.Name, n, va, vb, "", "exact", verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d checks beyond their bound", bad)
	}
	return nil
}
