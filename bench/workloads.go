package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sizes are the work-list and stack dimensions of one run. Every knob
// of the program itself stays at what the daemons ship with.
type sizes struct {
	ooc, tiny modelSpec
	// §III-B protocol of the two latency workloads.
	promptLen, outTokens, prompts, warmGens int
	// Work is a fixed list, so that two commits do identical work and
	// token digests are exact; its length is --seconds times these
	// rates, which make a run last about --seconds on the 2-core box
	// the benchmark was sized on.
	oocGensPerSec, residentGensPerSec, batchReqsPerSec float64
	// batch_offline list and pool.
	batchClients, batchPrompt, batchPrefix, batchMinOut, batchMaxOut int
	kvPages, pageTokens, verifyEvery                                 int
	// fleet_open traffic.
	fleetRate          float64
	replicas           int
	fleetVerifyEvery   int
	warmTraffic        time.Duration
	setupReps          int
	kernelPromptLen    int
	sloFast, sloBatch  time.Duration
	pageSampleInterval time.Duration
}

func fullSizes() sizes {
	return sizes{
		// 12.3 M parameters, 49 MB in f32: beyond the last-level cache,
		// so every decode step streams its weights.
		ooc: modelSpec{Name: "bench-ooc", Hidden: 384, Heads: 6, Blocks: 6, Vocab: 2048, MaxSeq: 256},
		// What helmd and helmgw boot by default: the engine is so small
		// that the serving layers are the largest feasible share of a request.
		tiny:      modelSpec{Name: "bench-tiny", Hidden: 64, Heads: 4, Blocks: 4, Vocab: 512, MaxSeq: 2048},
		promptLen: 128, outTokens: 21, prompts: 2, warmGens: 1,
		oocGensPerSec: 0.6, residentGensPerSec: 1.0, batchReqsPerSec: 1.75,
		batchClients: 8, batchPrompt: 48, batchPrefix: 32, batchMinOut: 4, batchMaxOut: 48,
		kvPages: 40, pageTokens: 16, verifyEvery: 16,
		fleetRate: 25, replicas: 2, fleetVerifyEvery: 8,
		warmTraffic: 3 * time.Second, setupReps: 5, kernelPromptLen: 128,
		sloFast: 250 * time.Millisecond, sloBatch: 500 * time.Millisecond,
		pageSampleInterval: 100 * time.Millisecond,
	}
}

// smokeSizes shrink every list and model so all four workloads run in
// a unit test; the code paths are the full run's.
func smokeSizes() sizes {
	s := fullSizes()
	s.ooc = modelSpec{Name: "smoke-ooc", Hidden: 64, Heads: 4, Blocks: 2, Vocab: 256, MaxSeq: 128}
	s.tiny = modelSpec{Name: "smoke-tiny", Hidden: 32, Heads: 2, Blocks: 2, Vocab: 128, MaxSeq: 2048}
	s.promptLen, s.outTokens, s.warmGens = 16, 5, 1
	s.oocGensPerSec, s.residentGensPerSec, s.batchReqsPerSec = 20, 20, 80
	s.batchClients, s.batchMaxOut, s.verifyEvery = 4, 12, 1
	s.fleetRate, s.fleetVerifyEvery = 200, 1
	s.warmTraffic, s.setupReps, s.kernelPromptLen = 50*time.Millisecond, 1, 16
	s.pageSampleInterval = 10 * time.Millisecond
	return s
}

// env is what one run of one workload is given.
type env struct {
	sz   sizes
	seed int64
	dir  string // scratch directory for checkpoints
	// solo caches reference token streams across the passes of one run:
	// every pass of a workload decodes from the same weights.
	solo map[string][]int
}

// reference returns the solo engine's tokens for a request, computing
// them once per run.
func (ev env) reference(solo func([]int, int) ([]int, error), prompt []int, n int) ([]int, error) {
	key := fmt.Sprint(n, prompt)
	if toks, ok := ev.solo[key]; ok {
		return toks, nil
	}
	toks, err := solo(prompt, n)
	if err != nil {
		return nil, fmt.Errorf("solo reference: %w", err)
	}
	ev.solo[key] = toks
	return toks, nil
}

// work is the length of a fixed list: seconds times its rate.
func work(seconds, perSecond float64, atLeast int) int {
	return max(atLeast, int(seconds*perSecond+0.5))
}

// phase is one measured pass over a work list: the end-to-end values,
// the per-layer values it could measure, and the verdicts.
type phase struct {
	e2e, layer        map[string]float64
	samples           map[string]int
	attempted, failed int
	digest            uint64
	problems          []string // correctness failures; empty means correct
	// Latency workloads only, for prefetch.hidden_share: decode wall
	// time and the store wrapper's busy time in decode steps, per
	// generation, in ms.
	decodeWallPerGen, decodeBusyPerGen float64
}

func newPhase() *phase {
	return &phase{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// problem records a wrong output: the run is incorrect.
func (p *phase) problem(format string, args ...any) {
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// fail counts an operation the program refused or failed. The run stays
// correct; the result line carries the count.
func (p *phase) fail(format string, args ...any) {
	if p.failed++; p.failed <= 8 {
		fmt.Fprintf(os.Stderr, "bench: failed: "+format+"\n", args...)
	}
}

// percentile is the nearest-rank percentile of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*p/100+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A set-up is repeated at least sizes.setupReps times and, when that is
// more than once, until setupBudget is spent or maxSetupReps reached: the
// fleet boots in 17 ms, and the median of five such readings is the
// host's noise.
const (
	setupBudget  = 1500 * time.Millisecond
	maxSetupReps = 40
)

// timedSetup runs build repeatedly, closing every stack but the last,
// and records the seconds each took at reference host speed.
func timedSetup[T interface{ close() error }](p *phase, sp *speedTrack, reps int, build func() (T, error)) (T, error) {
	var last, zero T
	var secs []float64
	begin := time.Now()
	for i := 0; i < reps || (reps > 1 && i < maxSetupReps && time.Since(begin) < setupBudget); i++ {
		if i > 0 {
			if err := last.close(); err != nil {
				return zero, err
			}
			// Each repetition starts from the heap a fresh process has,
			// so the resident peak is one stack's and not three.
			runtime.GC()
		}
		start := time.Now()
		s, err := build()
		if err != nil {
			return zero, err
		}
		secs = append(secs, sp.atRef(start, time.Now(), followSetup)/1e3)
		last = s
	}
	p.samples["setup_s"] = len(secs)
	p.e2e["setup_s"] = percentile(secs, 50)
	return last, nil
}

// allocMark is a reading of the heap-traffic counters.
type allocMark struct{ mallocs, bytes uint64 }

func markAllocs() allocMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMark{m.Mallocs, m.TotalAlloc}
}

func (a allocMark) perToken(p *phase, tokens int) {
	b := markAllocs()
	p.layer["step.allocs_per_token"] = ratio(float64(b.mallocs-a.mallocs), float64(tokens))
	p.layer["step.kb_alloc_per_token"] = ratio(float64(b.bytes-a.bytes)/1e3, float64(tokens))
}

func digestTokens(h interface{ Write([]byte) (int, error) }, toks []int) {
	var b [4]byte
	for _, t := range toks {
		b[0], b[1], b[2], b[3] = byte(t), byte(t>>8), byte(t>>16), byte(t>>24)
		_, _ = h.Write(b[:]) // hash writes cannot fail
	}
}

// ---- ooc_latency / resident_latency -----------------------------------

// runLatency is the paper's §III-B protocol: batch 1, promptLen tokens
// in, outTokens out, one Step call per token, each timed from outside.
func runLatency(ctx context.Context, ev env, outOfCore, prefetched bool, seconds float64, reps int, tr *tracer) (*phase, error) {
	sz := ev.sz
	p := newPhase()
	sp := startSpeedTrack()
	defer sp.stop()
	ckpt := filepath.Join(ev.dir, sz.ooc.Name+".hlmc")
	eng, err := timedSetup(p, sp, reps, func() (*engineStack, error) {
		mem, err := synthesize(sz.ooc)
		if err != nil {
			return nil, err
		}
		if !outOfCore {
			return openResident(sz.ooc, mem, tr)
		}
		if err := writeCheckpoint(ckpt, sz.ooc, mem); err != nil {
			return nil, err
		}
		return openOutOfCore(ctx, ckpt, sz.ooc, prefetched, tr)
	})
	if err != nil {
		return nil, err
	}
	defer eng.close()

	prompts := latencyPrompts(ev.seed, sz.prompts, sz.promptLen, sz.ooc.Vocab)
	want := make([][]int, len(prompts))
	for i, pr := range prompts {
		if want[i], err = ev.reference(eng.solo, pr, sz.outTokens); err != nil {
			return nil, err
		}
	}

	// Steps are scaled to reference host speed once the list is done,
	// when the readings on both sides of each are in.
	rate := sz.residentGensPerSec
	if outOfCore {
		rate = sz.oocGensPerSec
	}
	timedGens := work(seconds, rate, 2)
	type interval struct{ from, to time.Time }
	steps := make([]interval, 0, timedGens*sz.outTokens)
	var decodeBusy time.Duration
	h := fnv.New64a()
	got := make([]int, 0, sz.outTokens)
	tok := make([]int, 1)
	generate := func(g int, timed bool) error {
		prompt := prompts[g%len(prompts)]
		eng.reset()
		got = got[:0]
		genSpan := -1
		start := time.Now()
		if tr != nil {
			genSpan = tr.begin("request", fmt.Sprintf("generation %d", g), g, -1, start)
			tr.curReq.Store(int64(g))
		}
		var busy0 time.Duration
		last := start
		for i := 0; i < sz.outTokens; i++ {
			in := prompt
			if i > 0 {
				tok[0] = got[i-1]
				in = tok
			}
			stepSpan := -1
			if tr != nil {
				name := "decode"
				if i == 0 {
					name = "prefill"
				}
				stepSpan = tr.begin("compute", name, g, genSpan, last)
				tr.curSpan.Store(int64(stepSpan))
			}
			next, err := eng.step(in)
			if err != nil {
				return err
			}
			now := time.Now()
			if tr != nil {
				tr.finish(stepSpan, now)
			}
			got = append(got, next)
			if timed {
				steps = append(steps, interval{last, now})
				if i == 0 && eng.timed != nil {
					busy0 = eng.timed.counters().Busy
				}
			}
			last = now
		}
		if tr != nil {
			tr.finish(genSpan, last)
		}
		if !timed {
			return nil
		}
		if eng.timed != nil {
			decodeBusy += eng.timed.counters().Busy - busy0
		}
		p.attempted++
		digestTokens(h, got)
		if !slices.Equal(got, want[g%len(want)]) {
			p.failed++
			p.problem("generation %d: tokens %v differ from infer.Engine.Generate %v", g, got, want[g%len(want)])
		}
		return nil
	}

	for g := 0; g < sz.warmGens; g++ {
		if err := generate(g, false); err != nil {
			return nil, err
		}
	}
	// Counters are read with no prefetch in flight, so the store wrapper
	// and the engine have counted the same fetches at both readings.
	eng.settle()
	c0 := eng.counters()
	var s0 storeCounters
	if eng.timed != nil {
		s0 = eng.timed.counters()
	}
	allocs := markAllocs()
	for g := 0; g < timedGens; g++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := generate(sz.warmGens+g, true); err != nil {
			return nil, err
		}
	}
	allocs.perToken(p, len(steps))
	eng.settle()
	c1 := eng.counters()
	sp.stop()

	prefillFollow, decodeFollow := followResidentPrefill, followResidentDecode
	if outOfCore {
		prefillFollow, decodeFollow = followOOC, followOOC
	}
	var ttft, tbt, gens []float64
	var wall, decodeWall float64
	for i, st := range steps {
		var d float64
		if i%sz.outTokens == 0 {
			d = sp.atRef(st.from, st.to, prefillFollow)
			ttft, gens = append(ttft, d), append(gens, 0)
		} else {
			d = sp.atRef(st.from, st.to, decodeFollow)
			tbt = append(tbt, d)
			decodeWall += d
		}
		wall += d
		gens[len(gens)-1] += d
	}
	p.samples["ttft_ms_p50"], p.samples["tbt_ms_p50"], p.samples["req_ms_p50"] = len(ttft), len(tbt), len(gens)
	p.e2e["ttft_ms_p50"] = percentile(ttft, 50)
	p.e2e["tbt_ms_p50"] = percentile(tbt, 50)
	p.layer["step.tbt_ms_p95"] = percentile(tbt, 95)
	p.e2e["req_ms_p50"] = percentile(gens, 50)
	p.e2e["tokens_per_s"] = ratio(float64(len(steps)), wall/1e3)
	p.digest = h.Sum64()
	p.layer["host.slowdown"] = sp.median()

	p.layer["step.weight_fetches_per_step"] = ratio(float64(c1.WeightFetches-c0.WeightFetches), float64(len(steps)))
	hits, misses := c1.PrefetchHits-c0.PrefetchHits, c1.PrefetchMisses-c0.PrefetchMisses
	p.layer["prefetch.hit_rate"] = ratio(float64(hits), float64(hits+misses))
	p.layer["prefetch.degraded_fetches"] = float64(c1.Degraded - c0.Degraded)
	if eng.timed != nil {
		storeLayer(p, eng.timed.counters(), s0, len(steps))
	}
	// The wrapper's busy time has no timestamps to scale it by, so it
	// takes the pass's median slowdown.
	n := float64(len(gens))
	p.decodeWallPerGen = decodeWall / n
	p.decodeBusyPerGen = ms(decodeBusy) / (1 + decodeFollow*(sp.median()-1)) / n
	return p, nil
}

// storeLayer turns the timing wrapper's deltas into per-step metrics.
func storeLayer(p *phase, now, before storeCounters, steps int) {
	n := float64(steps)
	p.layer["store.fetch_calls_per_step"] = ratio(float64(now.Calls-before.Calls), n)
	p.layer["store.fetch_ms_per_step"] = ratio(ms(now.Busy-before.Busy), n)
	p.layer["store.fetch_mb_per_step"] = ratio(float64(now.Bytes-before.Bytes)/1e6, n)
	p.layer["store.fetch_errors"] = float64(now.Errors - before.Errors)
}

// ---- batch_offline ----------------------------------------------------

type batchReply struct {
	start  time.Time
	took   time.Duration
	tokens []int
	err    error
}

// batchLayer fills the batcher, pool and engine metrics from two
// readings of the public counters.
func batchLayer(p *phase, c0, c1 batchCounters, promptTokens int) {
	steps := float64(c1.Steps - c0.Steps)
	p.layer["batch.steps"] = steps
	p.layer["batch.avg_occupancy"] = ratio(float64(c1.OccupancySum-c0.OccupancySum), steps)
	p.layer["batch.tokens_per_step"] = ratio(float64(c1.TokensOut-c0.TokensOut), steps)
	p.layer["batch.steps_per_request"] = ratio(steps, float64(c1.Completed-c0.Completed))
	p.layer["batch.preemptions"] = float64(c1.Preemptions - c0.Preemptions)
	p.layer["batch.retries"] = float64(c1.Retries - c0.Retries)
	p.layer["kvcache.prefix_hit_rate"] = ratio(float64(c1.PrefixHits-c0.PrefixHits), float64(c1.PrefixLookups-c0.PrefixLookups))
	p.layer["kvcache.shared_token_share"] = ratio(float64(c1.SharedTokens-c0.SharedTokens), float64(promptTokens))
	p.layer["kvcache.cow_copies"] = float64(c1.CoW - c0.CoW)
	p.layer["kvcache.evictions"] = float64(c1.Evicted - c0.Evicted)
	p.layer["step.weight_fetches_per_step"] = ratio(float64(c1.Engine.WeightFetches-c0.Engine.WeightFetches), steps)
	hits, misses := c1.Engine.PrefetchHits-c0.Engine.PrefetchHits, c1.Engine.PrefetchMisses-c0.Engine.PrefetchMisses
	p.layer["prefetch.hit_rate"] = ratio(float64(hits), float64(hits+misses))
	p.layer["prefetch.degraded_fetches"] = float64(c1.Engine.Degraded - c0.Engine.Degraded)
}

// samplePages averages a page-utilisation gauge until stop closes.
func samplePages(every time.Duration, read func() float64, stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		var sum float64
		var n int
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- ratio(sum, float64(n))
				return
			case <-t.C:
				sum += read()
				n++
			}
		}
	}()
	return out
}

// runBatch keeps batchClients requests outstanding against the batcher
// in a closed loop until the fixed list is done: each client takes the
// next request when its last one returns. Ramp-up and drain are part of
// the list's wall time, as they are of any offline batch.
func runBatch(ctx context.Context, ev env, seconds float64, reps int, tr *tracer) (*phase, error) {
	sz := ev.sz
	p := newPhase()
	sp := startSpeedTrack()
	defer sp.stop()
	ckpt := filepath.Join(ev.dir, sz.ooc.Name+".hlmc")
	st, err := timedSetup(p, sp, reps, func() (*batchStack, error) {
		mem, err := synthesize(sz.ooc)
		if err != nil {
			return nil, err
		}
		if err := writeCheckpoint(ckpt, sz.ooc, mem); err != nil {
			return nil, err
		}
		return openBatch(ctx, ckpt, sz.ooc, sz.kvPages, sz.pageTokens, sz.batchClients, tr)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()

	// The first batchClients requests of the list are the warm-up wave.
	n := work(seconds, sz.batchReqsPerSec, sz.batchClients)
	list := batchList(ev.seed, sz.batchClients+n, sz.batchPrompt, sz.batchPrefix, sz.batchMinOut, sz.batchMaxOut, sz.ooc.Vocab)
	want := make(map[int][]int)
	for i := sz.batchClients + int(ev.seed)%sz.verifyEvery; i < len(list); i += sz.verifyEvery {
		if want[i], err = ev.reference(st.solo, list[i].Prompt, list[i].MaxNew); err != nil {
			return nil, err
		}
	}

	replies := make([]batchReply, len(list))
	drive := func(from, to int) {
		var next atomic.Int64
		next.Store(int64(from))
		var wg sync.WaitGroup
		for c := 0; c < sz.batchClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1) - 1)
					if i >= to {
						return
					}
					start := time.Now()
					span := -1
					if tr != nil && from > 0 {
						span = tr.begin("request", "Submit", i, -1, start)
					}
					toks, err := st.submit(ctx, list[i].Prompt, list[i].MaxNew)
					end := time.Now()
					if tr != nil {
						tr.finish(span, end)
					}
					replies[i] = batchReply{start: start, took: end.Sub(start), tokens: toks, err: err}
				}
			}()
		}
		wg.Wait()
	}
	drive(0, sz.batchClients)

	var pages <-chan float64
	stopSampler := make(chan struct{})
	if tr != nil {
		pages = samplePages(sz.pageSampleInterval, func() float64 { return st.counters(false).PageUtilization }, stopSampler)
	}
	c0 := st.counters(true)
	var s0 storeCounters
	if st.timed != nil {
		s0 = st.timed.counters()
	}
	allocs := markAllocs()
	begin := time.Now()
	drive(sz.batchClients, len(list))
	end := time.Now()
	c1 := st.counters(true)
	allocs.perToken(p, c1.TokensOut-c0.TokensOut)
	if st.timed != nil {
		storeLayer(p, st.timed.counters(), s0, c1.Steps-c0.Steps)
	}
	close(stopSampler)
	if pages != nil {
		p.layer["kvcache.page_utilization_mean"] = <-pages
	}
	if err := st.close(); err != nil {
		p.problem("batcher at quiescence: %v", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp.stop()

	var lat, perTok []float64
	tokens, promptTokens := 0, 0
	h := fnv.New64a()
	for i := sz.batchClients; i < len(list); i++ {
		r := replies[i]
		p.attempted++
		if r.err != nil {
			p.fail("request %d: %v", i, r.err)
			continue
		}
		if len(r.tokens) != list[i].MaxNew {
			p.problem("request %d: %d tokens, asked for %d", i, len(r.tokens), list[i].MaxNew)
		}
		if w, ok := want[i]; ok && !slices.Equal(r.tokens, w) {
			p.problem("request %d: batched tokens differ from infer.Engine.Generate", i)
		}
		digestTokens(h, r.tokens)
		tokens += len(r.tokens)
		promptTokens += len(list[i].Prompt)
		took := sp.atRef(r.start, r.start.Add(r.took), followBatch)
		lat = append(lat, took)
		perTok = append(perTok, took/float64(len(r.tokens)))
	}
	p.digest = h.Sum64()
	replyMetrics(p, lat, perTok)
	p.e2e["tokens_per_s"] = ratio(float64(tokens), sp.wallAtRef(begin, end, followBatch)/1e3)
	p.layer["host.slowdown"] = sp.median()
	batchLayer(p, c0, c1, promptTokens)
	return p, nil
}

// replyMetrics fills the latency metrics of a workload whose entry
// point returns the whole token stream at once: the first token reaches
// the caller with the reply, and the gap between tokens is the reply
// time spread over the tokens it carried.
func replyMetrics(p *phase, lat, perTok []float64) {
	for _, k := range []string{"req_ms_p50", "ttft_ms_p50"} {
		p.samples[k] = len(lat)
		p.e2e[k] = percentile(lat, 50)
	}
	p.samples["tbt_ms_p50"] = len(perTok)
	p.e2e["tbt_ms_p50"] = percentile(perTok, 50)
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// ---- fleet_open -------------------------------------------------------

type fleetReply struct {
	status   int
	body     []byte
	due      time.Time
	lag, e2e time.Duration // dispatcher lateness; due time → reply
}

// generateReply is the part of server.GenerateResponse the harness
// reads from a reply body.
type generateReply struct {
	Tokens    []int   `json:"tokens"`
	QueueMS   float64 `json:"queue_ms"`
	ServiceMS float64 `json:"service_ms"`
}

// runFleet sends the seeded Poisson schedule through the gateway in an
// open loop: one dispatcher goroutine follows the due times, and every
// request in flight is a goroutine parked in ServeHTTP. Latency counts
// from the due time, so a stall charges the requests queued behind it.
func runFleet(ctx context.Context, ev env, seconds float64, reps int, t *tracer) (*phase, error) {
	sz := ev.sz
	p := newPhase()
	sched, firstTimed := fleetSchedule(ev.seed, sz.fleetRate, sz.warmTraffic, time.Duration(seconds*float64(time.Second)), sz.tiny.Vocab)
	if t != nil {
		t.expectRequests(len(sched))
	}
	sp := startSpeedTrack()
	defer sp.stop()
	ckpt := filepath.Join(ev.dir, sz.tiny.Name+".hlmc")
	fl, err := timedSetup(p, sp, reps, func() (*fleetStack, error) {
		mem, err := synthesize(sz.tiny)
		if err != nil {
			return nil, err
		}
		if err := writeCheckpoint(ckpt, sz.tiny, mem); err != nil {
			return nil, err
		}
		return openFleet(ctx, ckpt, sz.tiny, sz.replicas, t)
	})
	if err != nil {
		return nil, err
	}
	defer fl.close()

	replies := make([]fleetReply, len(sched))
	var wg sync.WaitGroup
	var pages <-chan float64
	stopSampler := make(chan struct{})
	if t != nil {
		pages = samplePages(sz.pageSampleInterval, func() float64 { return fl.counters().Batch.PageUtilization }, stopSampler)
	}
	allocs := markAllocs()
	t0 := time.Now()
	for i := range sched {
		due := t0.Add(sched[i].Due)
		if d := time.Until(due); d > 0 {
			sleepCtx(ctx, d)
		}
		if ctx.Err() != nil {
			break
		}
		replies[i].due, replies[i].lag = due, time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rctx := ctx
			span := -1
			if t != nil {
				rctx = withReq(ctx, i)
				span = t.begin("client", sched[i].Class, i, -1, due)
				t.reqs[i].clientSpan = span
			}
			// The URL is a constant and the method valid, so this cannot fail.
			req, _ := http.NewRequestWithContext(rctx, http.MethodPost, "/v1/generate", bytes.NewReader(sched[i].Body))
			rec := httptest.NewRecorder()
			fl.handler.ServeHTTP(rec, req)
			end := time.Now()
			if t != nil {
				t.finish(span, end)
			}
			replies[i].status, replies[i].body, replies[i].e2e = rec.Code, rec.Body.Bytes(), end.Sub(due)
		}(i)
	}
	wg.Wait()
	drained := time.Since(t0)
	sp.stop()
	close(stopSampler)
	if pages != nil {
		p.layer["kvcache.page_utilization_mean"] = <-pages
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Quiescent: every reply is in, so the ledgers must balance.
	c := fl.counters()
	if !c.GatewayConserved {
		p.problem("gateway FleetStats.Conserved() is false at quiescence")
	}
	if !c.ReplicasConserved {
		p.problem("a replica's server.Stats().Conserved() is false at quiescence")
	}

	var lat, perTok, lags, queue, service, overhead, self []float64
	var sumE2E, sumSelf, sumOverhead, sumQueue, sumService float64
	byClass := map[string][]float64{}
	tokens, ok, withinSLO := 0, 0, 0
	h := fnv.New64a()
	for i, r := range replies {
		if i < firstTimed {
			continue
		}
		p.attempted++
		lags = append(lags, ms(r.lag))
		var body generateReply
		if r.status != http.StatusOK {
			p.fail("request %d (%s): status %d: %s", i, sched[i].Class, r.status, bytes.TrimSpace(r.body))
			continue
		}
		if err := json.Unmarshal(r.body, &body); err != nil || len(body.Tokens) != sched[i].MaxNew {
			p.fail("request %d: unusable 200 body (%v, %d tokens)", i, err, len(body.Tokens))
			p.problem("request %d: a 200 did not carry the tokens asked for", i)
			continue
		}
		if p.attempted%sz.fleetVerifyEvery == 0 {
			want, err := ev.reference(fl.solo, sched[i].Prompt, sched[i].MaxNew)
			if err != nil {
				return nil, err
			}
			if !slices.Equal(body.Tokens, want) {
				p.problem("request %d: fleet tokens differ from infer.Engine.Generate", i)
			}
		}
		ok++
		digestTokens(h, body.Tokens)
		tokens += len(body.Tokens)
		limit := sz.sloFast
		if sched[i].Class == "batch" {
			limit = sz.sloBatch
		}
		if r.e2e <= limit {
			withinSLO++
		}
		e2e := sp.atRef(r.due, r.due.Add(r.e2e), followFleet)
		lat = append(lat, e2e)
		perTok = append(perTok, e2e/float64(len(body.Tokens)))
		byClass[sched[i].Class] = append(byClass[sched[i].Class], e2e)
		queue = append(queue, body.QueueMS)
		service = append(service, body.ServiceMS)
		if t != nil {
			rt := t.reqs[i]
			gwSelf, srv := ms(rt.gateway-rt.backends), ms(rt.lastBackend)-body.QueueMS-body.ServiceMS
			self, overhead = append(self, gwSelf), append(overhead, srv)
			sumE2E, sumSelf, sumOverhead = sumE2E+ms(r.e2e-r.lag), sumSelf+gwSelf, sumOverhead+srv
			sumQueue, sumService = sumQueue+body.QueueMS, sumService+body.ServiceMS
		}
	}
	p.digest = h.Sum64()
	replyMetrics(p, lat, perTok)
	// Goodput over the time the window's requests took to finish: it
	// falls below the offered load as soon as a backlog forms. The
	// schedule sets it and not the host, so it is not scaled.
	p.e2e["tokens_per_s"] = ratio(float64(tokens), (drained - sz.warmTraffic).Seconds())
	p.layer["host.slowdown"] = sp.median()

	allocs.perToken(p, c.Batch.TokensOut)
	promptTokens := 0
	for _, r := range sched {
		promptTokens += len(r.Prompt)
	}
	batchLayer(p, batchCounters{}, c.Batch, promptTokens)
	p.layer["server.queue_ms_p50"] = percentile(queue, 50)
	p.layer["server.service_ms_p50"] = percentile(service, 50)
	p.layer["server.shed_share"] = ratio(float64(c.ReplicaShed), float64(c.ReplicaArrivals))
	p.layer["server.ledger_conserved"] = boolMetric(c.ReplicasConserved)
	p.layer["gateway.attempts_per_request"] = ratio(float64(c.Attempts), float64(c.Arrivals))
	p.layer["gateway.failovers_per_request"] = ratio(float64(c.Failovers), float64(c.Arrivals))
	p.layer["gateway.route_imbalance"] = ratio(float64(slices.Max(c.ServedPerReplica)), float64(slices.Min(c.ServedPerReplica)))
	p.layer["gateway.ledger_conserved"] = boolMetric(c.GatewayConserved)
	p.layer["client.sent"] = float64(p.attempted)
	p.layer["client.ok"] = float64(ok)
	p.layer["client.failed"] = float64(p.failed)
	p.layer["client.slo_attainment"] = ratio(float64(withinSLO), float64(p.attempted))
	p.layer["client.dispatch_lag_ms_p99"] = percentile(lags, 99)
	p.layer["client.dispatch_lag_ms_max"] = percentile(lags, 100)
	p.layer["client.e2e_ms_p95"] = percentile(lat, 95)
	for _, class := range []string{"interactive", "rag", "batch"} {
		p.layer["client.e2e_ms_p50."+class] = percentile(byClass[class], 50)
	}
	if t != nil {
		p.layer["gateway.self_ms_p50"] = percentile(self, 50)
		p.layer["server.overhead_ms_p50"] = percentile(overhead, 50)
		var s storeCounters
		for _, ts := range fl.timed {
			sc := ts.counters()
			s.Calls, s.Errors, s.Bytes, s.Busy = s.Calls+sc.Calls, s.Errors+sc.Errors, s.Bytes+sc.Bytes, s.Busy+sc.Busy
		}
		storeLayer(p, s, storeCounters{}, c.Batch.Steps)
		// Span accounting: from dispatch, a reply's time is the gateway's
		// own time, the replica's handler overhead, its queue wait and its
		// service time.
		parts := sumSelf + sumOverhead + sumQueue + sumService
		if sumE2E > 0 && (parts < 0.95*sumE2E || parts > 1.05*sumE2E) {
			p.problem("span accounting: mean dispatch-to-reply %.3f ms, spans add up to %.3f ms", sumE2E/float64(ok), parts/float64(ok))
		}
	}
	if err := fl.close(); err != nil {
		p.problem("fleet drain: %v", err)
	}
	return p, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			var kb float64
			if _, err := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	// No procfs: what the Go runtime has obtained from the OS.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
