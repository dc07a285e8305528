package main

// stack.go is the only file of the harness that imports
// helmsim/internal/...: it turns the stack's public constructors,
// calls and counters into plain Go values, so a change that collapses
// those APIs leaves a one-file follow-up here. Nothing in this file
// reaches behind a public function.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"helmsim/internal/batch"
	"helmsim/internal/experiments"
	"helmsim/internal/gateway"
	"helmsim/internal/infer"
	"helmsim/internal/kvcache"
	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/server"
	"helmsim/internal/tensor"
)

// modelSpec names one synthetic model of the benchmark.
type modelSpec struct {
	Name                                 string
	Hidden, Heads, Blocks, Vocab, MaxSeq int
}

func (m modelSpec) config() model.Config {
	return model.Config{
		Name: m.Name, Hidden: m.Hidden, Heads: m.Heads, Blocks: m.Blocks,
		Vocab: m.Vocab, MaxSeq: m.MaxSeq, DTypeBytes: 2,
	}
}

// weightSeed and weightScale are what helmd and helmgw synthesize
// their default checkpoint with.
const (
	weightSeed  = 1
	weightScale = 0.06
)

// retry is the daemons' default foreground retry policy (-retries 3).
var retry = infer.Retry{Max: 3}

// synthesize builds the model's f32 weights in memory.
func synthesize(m modelSpec) (*infer.MemStore, error) {
	return infer.RandomWeights(m.config(), weightSeed, weightScale)
}

// writeCheckpoint quantises the weights to 4-bit groups of 64 and
// writes the indexed checkpoint the out-of-core path serves from.
func writeCheckpoint(path string, m modelSpec, mem *infer.MemStore) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	qc := quant.Default()
	if err := infer.WriteCheckpoint(f, m.config(), mem, &qc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openCheckpoint maps the checkpoint and CRC-verifies it, as the
// daemons do before serving from a file.
func openCheckpoint(path string) (*infer.FileStore, error) {
	fs, err := infer.OpenFileStoreMmap(path)
	if err != nil {
		return nil, err
	}
	if err := fs.Verify(); err != nil {
		fs.Close()
		return nil, fmt.Errorf("checkpoint integrity: %w", err)
	}
	return fs, nil
}

// ---- store timing wrapper ---------------------------------------------

// storeCounters is what the timing wrapper has seen.
type storeCounters struct {
	Calls, Errors, Bytes int64
	Busy                 time.Duration
}

// timedStore times every fetch that crosses the engine/store boundary.
// It exists only in traced passes.
type timedStore struct {
	inner                  infer.WeightStore
	tr                     *tracer
	lane                   string
	calls, errs, bytes, ns atomic.Int64
}

func (t *timedStore) counters() storeCounters {
	return storeCounters{Calls: t.calls.Load(), Errors: t.errs.Load(), Bytes: t.bytes.Load(), Busy: time.Duration(t.ns.Load())}
}

func (t *timedStore) observe(layer int, name string, start time.Time, d []float32, err error) {
	end := time.Now()
	t.calls.Add(1)
	t.ns.Add(int64(end.Sub(start)))
	if err != nil {
		t.errs.Add(1)
	}
	// Bytes are computed from the returned lengths (f32 elements), not
	// read from the device.
	t.bytes.Add(int64(4 * len(d)))
	t.tr.fetch(t.lane, layer, name, start, end)
}

func (t *timedStore) Tensor(layer int, name string) ([]float32, error) {
	start := time.Now()
	d, err := t.inner.Tensor(layer, name)
	t.observe(layer, name, start, d, err)
	return d, err
}

func (t *timedStore) tensorInto(layer int, name string, dst []float32) ([]float32, error) {
	start := time.Now()
	d, err := t.inner.(infer.IntoStore).TensorInto(layer, name, dst)
	t.observe(layer, name, start, d, err)
	return d, err
}

func (t *timedStore) tensorView(layer int, name string) ([]float32, error) {
	start := time.Now()
	d, err := t.inner.(infer.ViewStore).TensorView(layer, name)
	t.observe(layer, name, start, d, err)
	return d, err
}

// The engine picks its fetch path by type assertion, so the wrapper
// must offer exactly the optional interfaces of what it wraps: one type
// per combination.
type (
	timedInto     struct{ *timedStore }
	timedView     struct{ *timedStore }
	timedIntoView struct{ *timedStore }
)

func (t timedInto) TensorInto(l int, n string, dst []float32) ([]float32, error) {
	return t.tensorInto(l, n, dst)
}
func (t timedView) TensorView(l int, n string) ([]float32, error) { return t.tensorView(l, n) }
func (t timedIntoView) TensorInto(l int, n string, dst []float32) ([]float32, error) {
	return t.tensorInto(l, n, dst)
}
func (t timedIntoView) TensorView(l int, n string) ([]float32, error) { return t.tensorView(l, n) }

// storeShape names the optional store interfaces w implements.
func storeShape(w infer.WeightStore) string {
	_, into := w.(infer.IntoStore)
	_, view := w.(infer.ViewStore)
	switch {
	case into && view:
		return "into+view"
	case into:
		return "into"
	case view:
		return "view"
	}
	return "plain"
}

// wrapStore puts the timing wrapper in front of inner when tr is set.
func wrapStore(inner infer.WeightStore, tr *tracer, lane string) (infer.WeightStore, *timedStore) {
	if tr == nil {
		return inner, nil
	}
	t := &timedStore{inner: inner, tr: tr, lane: lane}
	switch storeShape(inner) {
	case "into+view":
		return timedIntoView{t}, t
	case "into":
		return timedInto{t}, t
	case "view":
		return timedView{t}, t
	}
	return t, t
}

// ---- engine workloads -------------------------------------------------

// engineCounters are StepEngine's public counters.
type engineCounters struct {
	WeightFetches, PrefetchHits, PrefetchMisses, Degraded int
}

// engineStack is one StepEngine over one store, driven a step at a
// time for a single sequence — the §III-B batch-1 protocol.
type engineStack struct {
	cfg   model.Config
	se    *infer.StepEngine
	store infer.WeightStore // unwrapped: the solo reference decodes from it
	timed *timedStore
	file  *infer.FileStore
	seq   infer.StepSeq
	seqs  []*infer.StepSeq
}

// openOutOfCore builds the engine the way server does for batch mode
// (NewStepEnginePrefetched) over the mmap'd 4-bit checkpoint, or with
// prefetched=false the plain NewStepEngine over the same file.
func openOutOfCore(ctx context.Context, path string, m modelSpec, prefetched bool, tr *tracer) (*engineStack, error) {
	fs, err := openCheckpoint(path)
	if err != nil {
		return nil, err
	}
	w, timed := wrapStore(fs, tr, "load")
	var se *infer.StepEngine
	if prefetched {
		se, err = infer.NewStepEnginePrefetched(ctx, m.config(), w, retry)
	} else {
		se, err = infer.NewStepEngine(m.config(), w)
	}
	if err != nil {
		fs.Close()
		return nil, err
	}
	return newEngineStack(m, se, fs, timed, fs), nil
}

// openResident builds NewStepEngine over the f32 weights in memory.
func openResident(m modelSpec, mem *infer.MemStore, tr *tracer) (*engineStack, error) {
	w, timed := wrapStore(mem, tr, "load")
	se, err := infer.NewStepEngine(m.config(), w)
	if err != nil {
		return nil, err
	}
	return newEngineStack(m, se, mem, timed, nil), nil
}

func newEngineStack(m modelSpec, se *infer.StepEngine, store infer.WeightStore, timed *timedStore, file *infer.FileStore) *engineStack {
	e := &engineStack{cfg: m.config(), se: se, store: store, timed: timed, file: file}
	e.seq.KV = infer.NewBlockCaches(e.cfg)
	e.seqs = []*infer.StepSeq{&e.seq}
	return e
}

// reset empties the sequence's KV cache for the next generation.
func (e *engineStack) reset() {
	for _, kv := range e.seq.KV {
		kv.Truncate(0)
	}
	e.seq.Pos = 0
}

// step feeds tokens (the prompt at prefill, one token at decode) and
// returns the greedy next token.
func (e *engineStack) step(tokens []int) (int, error) {
	e.seq.Tokens = tokens
	out, err := e.se.Step(e.seqs)
	if err != nil {
		return 0, err
	}
	e.seq.Pos += len(tokens)
	return out[0].ArgmaxRow(0), nil
}

// settle waits for any background prefetch in flight.
func (e *engineStack) settle() { e.se.Settle() }

func (e *engineStack) counters() engineCounters {
	h, m := e.se.PrefetchStats()
	return engineCounters{WeightFetches: e.se.WeightFetches(), PrefetchHits: h, PrefetchMisses: m, Degraded: e.se.DegradedFetches()}
}

// solo is the correctness reference: infer.Engine.Generate over the
// same store.
func (e *engineStack) solo(prompt []int, n int) ([]int, error) {
	return soloTokens(e.cfg, e.store, prompt, n)
}

func soloTokens(cfg model.Config, w infer.WeightStore, prompt []int, n int) ([]int, error) {
	eng, err := infer.New(cfg, w)
	if err != nil {
		return nil, err
	}
	return eng.Generate(prompt, n)
}

func (e *engineStack) close() error {
	err := e.se.Close()
	if e.file != nil {
		err = errors.Join(err, e.file.Close())
	}
	return err
}

// ---- batcher workload -------------------------------------------------

// batchCounters are batch.Batcher's and its pool's public counters.
type batchCounters struct {
	Engine                                                engineCounters
	Steps, OccupancySum, TokensOut, Completed             int
	Preemptions, Retries                                  int
	PrefixLookups, PrefixHits, SharedTokens, CoW, Evicted int
	PageUtilization                                       float64
}

func fromBatchStats(s batch.Stats) batchCounters {
	return batchCounters{
		Steps: s.Steps, OccupancySum: s.OccupancySum, TokensOut: s.TokensOut,
		Completed: s.Completed, Preemptions: s.Preemptions, Retries: s.Retries,
		PrefixLookups: s.Pool.PrefixLookups, PrefixHits: s.Pool.PrefixHits, SharedTokens: s.Pool.SharedTokens,
		CoW: s.Pool.CoWCopies, Evicted: s.Pool.Evictions, PageUtilization: s.Pool.PageUtilization,
	}
}

func (c *batchCounters) add(o batchCounters) {
	c.Steps += o.Steps
	c.OccupancySum += o.OccupancySum
	c.TokensOut += o.TokensOut
	c.Completed += o.Completed
	c.Preemptions += o.Preemptions
	c.Retries += o.Retries
	c.PrefixLookups += o.PrefixLookups
	c.PrefixHits += o.PrefixHits
	c.SharedTokens += o.SharedTokens
	c.CoW += o.CoW
	c.Evicted += o.Evicted
	c.PageUtilization += o.PageUtilization
}

// batchStack is batch.Batcher + kvcache.Pool + the prefetched
// out-of-core engine, wired as server's batch mode wires them.
type batchStack struct {
	cfg   model.Config
	b     *batch.Batcher
	se    *infer.StepEngine
	pool  *kvcache.Pool
	file  *infer.FileStore
	timed *timedStore

	closeOnce sync.Once
	closeErr  error
}

func openBatch(ctx context.Context, path string, m modelSpec, kvPages, pageTokens, maxSeqs int, tr *tracer) (*batchStack, error) {
	fs, err := openCheckpoint(path)
	if err != nil {
		return nil, err
	}
	w, timed := wrapStore(fs, tr, "load")
	se, err := infer.NewStepEnginePrefetched(ctx, m.config(), w, retry)
	if err != nil {
		fs.Close()
		return nil, err
	}
	pool, err := kvcache.NewPool(m.config(), kvPages, pageTokens, true)
	if err != nil {
		se.Close()
		fs.Close()
		return nil, err
	}
	return &batchStack{
		cfg: m.config(), se: se, pool: pool, file: fs, timed: timed,
		b: batch.New(se, pool, batch.Options{MaxSeqs: maxSeqs}),
	}, nil
}

func (s *batchStack) submit(ctx context.Context, prompt []int, maxNew int) ([]int, error) {
	return s.b.Submit(ctx, prompt, maxNew)
}

// counters reads the public counters. With no request in the batcher,
// it first lets the prefetch in flight land, so that the store wrapper
// and the engine have counted the same fetches.
func (s *batchStack) counters(idle bool) batchCounters {
	if idle {
		s.se.Settle()
	}
	c := fromBatchStats(s.b.Stats())
	h, m := s.se.PrefetchStats()
	c.Engine = engineCounters{WeightFetches: s.se.WeightFetches(), PrefetchHits: h, PrefetchMisses: m, Degraded: s.se.DegradedFetches()}
	return c
}

func (s *batchStack) solo(prompt []int, n int) ([]int, error) {
	return soloTokens(s.cfg, s.file, prompt, n)
}

// close drains the batcher and checks the page ledger at quiescence.
// Later calls return the first call's verdict.
func (s *batchStack) close() error {
	s.closeOnce.Do(func() {
		s.b.Stop()
		s.closeErr = errors.Join(s.pool.Conserved(), s.se.Close(), s.file.Close())
	})
	return s.closeErr
}

// ---- fleet workload ---------------------------------------------------

// fleetCounters are the gateway's and the replicas' public ledgers.
type fleetCounters struct {
	Arrivals, Attempts, Failovers       int64
	ServedPerReplica                    []int64
	ReplicaArrivals, ReplicaShed        int64
	Batch                               batchCounters // summed over replicas
	GatewayConserved, ReplicasConserved bool
}

// fleetStack is gateway → N in-process server replicas over one mmap'd
// checkpoint, reached through the repo's own HandlerTransport: how
// `helmgw -replicas N` wires them, minus the listener.
type fleetStack struct {
	cfg        model.Config
	soloStore  *infer.FileStore // the solo reference's own view of the checkpoint
	gw         *gateway.Gateway
	servers    []*server.Server
	timed      []*timedStore
	handler    http.Handler
	stopProbes context.CancelFunc
	probesDone <-chan struct{}

	closeOnce sync.Once
	closeErr  error
}

func openFleet(ctx context.Context, path string, m modelSpec, replicas int, tr *tracer) (*fleetStack, error) {
	soloStore, err := openCheckpoint(path)
	if err != nil {
		return nil, err
	}
	f := &fleetStack{cfg: m.config(), soloStore: soloStore}
	var backends []gateway.BackendConfig
	for i := 0; i < replicas; i++ {
		name := fmt.Sprintf("r%d", i)
		lane := "load " + name
		openStore := func() (infer.WeightStore, io.Closer, error) {
			fs, err := openCheckpoint(path)
			if err != nil {
				return nil, nil, err
			}
			w, timed := wrapStore(fs, tr, lane)
			if timed != nil {
				f.timed = append(f.timed, timed)
			}
			return w, fs, nil
		}
		s, err := server.New(ctx, server.Config{
			Model:     f.cfg,
			OpenStore: openStore,
			Workers:   8,
			MaxQueue:  64,
			Retry:     retry,
			Batch:     server.BatchConfig{Enabled: true, MaxSeqs: 8, KVPages: 256},
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("replica %s: %w", name, err)
		}
		f.servers = append(f.servers, s)
		var rt http.RoundTripper = gateway.HandlerTransport{Handler: s.Handler()}
		if tr != nil {
			rt = tr.transport(name, rt)
		}
		backends = append(backends, gateway.BackendConfig{Name: name, URL: "http://" + name, Client: &http.Client{Transport: rt}})
	}
	gw, err := gateway.New(ctx, gateway.Config{
		Backends: backends,
		Route:    gateway.RouteLeastLoad,
		Probe:    gateway.ProbeConfig{Interval: 250 * time.Millisecond},
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	f.handler = gw.Handler()
	if tr != nil {
		f.handler = tr.handler(f.handler)
	}
	probeCtx, stop := context.WithCancel(ctx)
	f.stopProbes, f.probesDone = stop, gw.Start(probeCtx)
	return f, nil
}

func (f *fleetStack) solo(prompt []int, n int) ([]int, error) {
	return soloTokens(f.cfg, f.soloStore, prompt, n)
}

// counters reads /fleetz's and every replica's /statz's source structs.
// The conservation predicates hold only at quiescence.
func (f *fleetStack) counters() fleetCounters {
	fs := f.gw.Stats()
	c := fleetCounters{
		Arrivals: fs.Arrivals, Failovers: fs.RetriedFailover,
		GatewayConserved: fs.Conserved(), ReplicasConserved: true,
	}
	for _, b := range fs.Backends {
		c.Attempts += b.Attempts
		c.ServedPerReplica = append(c.ServedPerReplica, b.Served)
	}
	for _, s := range f.servers {
		st := s.Stats()
		c.ReplicaArrivals += st.Arrivals
		c.ReplicaShed += st.Arrivals - st.Admitted
		c.ReplicasConserved = c.ReplicasConserved && st.Conserved()
		c.Batch.Engine.PrefetchHits += int(st.PrefetchHits)
		c.Batch.Engine.PrefetchMisses += int(st.PrefetchMisses)
		c.Batch.Engine.Degraded += int(st.DegradedFetches)
		c.Batch.Engine.WeightFetches += int(st.StoreAccesses)
		if st.Batch != nil {
			c.Batch.add(fromBatchStats(*st.Batch))
		}
	}
	if n := len(f.servers); n > 0 {
		c.Batch.PageUtilization /= float64(n)
	}
	return c
}

// close drains gateway then replicas, as helmgw does on SIGTERM. Later
// calls return the first call's verdict.
func (f *fleetStack) close() error {
	f.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var errs []error
		if f.gw != nil {
			f.stopProbes()
			<-f.probesDone
			errs = append(errs, f.gw.Drain(ctx))
		}
		for _, s := range f.servers {
			errs = append(errs, s.Drain(ctx))
		}
		f.closeErr = errors.Join(append(errs, f.soloStore.Close())...)
	})
	return f.closeErr
}

// ---- direct layer measurements ---------------------------------------

func randMat(rng *rand.Rand, r, c int) tensor.Mat {
	m := tensor.New(r, c)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// medianOf times fn reps times and returns the median.
func medianOf(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(percentile(ds, 50)), nil
}

// kernelMetrics calls tensor and quant directly at the model's decode,
// prefill and logits shapes. Flops per byte and packed bytes per
// element are computed from tensor sizes, not measured.
func kernelMetrics(m modelSpec, promptLen int) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(1))
	h, f := m.Hidden, 4*m.Hidden
	w := randMat(rng, h, f)
	x1, xp := randMat(rng, 1, h), randMat(rng, promptLen, h)
	table := randMat(rng, m.Vocab, h)
	out := map[string]float64{}
	gemv, err := medianOf(31, func() error { _, err := tensor.MatMul(x1, w); return err })
	if err != nil {
		return nil, err
	}
	gemm, err := medianOf(5, func() error { _, err := tensor.MatMul(xp, w); return err })
	if err != nil {
		return nil, err
	}
	logits, err := medianOf(31, func() error { _, err := tensor.MatMulT(x1, table); return err })
	if err != nil {
		return nil, err
	}
	out["tensor.gemv_decode_us"] = float64(gemv) / 1e3
	out["tensor.gemm_prefill_ms"] = float64(gemm) / 1e6
	out["tensor.logits_us"] = float64(logits) / 1e3
	// 2·H·4H flops over the f32 bytes of x, W and y.
	out["tensor.gemv_flops_per_byte"] = float64(2*h*f) / float64(4*(h+h*f+f))

	qt, err := quant.Quantize(w.Data, quant.Default())
	if err != nil {
		return nil, err
	}
	dst := make([]float32, len(w.Data))
	deq, err := medianOf(15, func() error { dst = qt.DequantizeInto(dst); return nil })
	if err != nil {
		return nil, err
	}
	out["quant.dequant_ns_per_elem"] = float64(deq) / float64(len(w.Data))
	out["quant.packed_bytes_per_elem"] = float64(qt.Bytes()) / float64(len(w.Data))
	return out, nil
}

// simDigest is the SHA-256 of the CSV rendering of every simulator
// experiment at the commit that defined this benchmark. Simulated
// statistics repeat exactly, so a mismatch means the model moved, not
// the host.
const simDigest = "629f6f680663a66bd98a80a2a461f14044be5f8880020890b47e6d9d09109613"

// simSweep runs the whole simulator sweep and digests its output.
func simSweep(ctx context.Context) (hostMS float64, digest string, err error) {
	start := time.Now()
	outcomes := experiments.RunSet(ctx, experiments.All(), runtime.GOMAXPROCS(0))
	hostMS = float64(time.Since(start)) / 1e6
	var buf bytes.Buffer
	for _, o := range outcomes {
		if o.Err != nil {
			return 0, "", fmt.Errorf("experiment %s: %w", o.Experiment.ID, o.Err)
		}
		for _, t := range o.Tables {
			if err := t.RenderCSV(&buf); err != nil {
				return 0, "", err
			}
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hostMS, hex.EncodeToString(sum[:]), nil
}
