package tensor

import (
	"sync/atomic"

	"helmsim/internal/parallel"
	"helmsim/internal/quant"
)

// Parallelism thresholds: kernels below these sizes run on the calling
// goroutine. They weigh what a fork costs (parallel.BenchmarkForkJoin):
// well under a microsecond of the caller's time when the pool's worker is
// hot (forks arriving back to back, as inside a decode step), several
// microseconds and a worker that arrives late when it has to be woken (the
// first fork after a pause) — and one more cost that is not the caller's:
// a step that forks at all keeps a second processor polling between its
// forks, which on a busy host is taken from another goroutine (a lower
// gate that let bench-tiny's decode fork its logits and long-context
// attention slowed the two-replica fleet workload's replies). So a model
// whose decode kernels are all small never wakes the pool outside prefill.
//
// Every constant here has been re-measured as the kernels under it
// changed, and each kept its value for the reason beside it. The
// measurements live in EXPERIMENTS.md ("fork thresholds"), not here,
// because the next kernel change makes them stale.
const (
	// minParallelFlops gates the matmuls (R*K*C multiply-adds). From cache
	// the smallest decode GEMV of bench-ooc (1x384x384, 147k) is about a tie
	// split over two hot workers, and the wider ones win clearly. But a
	// decode step does not run from cache: it streams its weights, which two
	// cores pull only a little faster than one, and the small forks are what
	// keep the worker awake between the large ones — with the gate raised so
	// that the 147k GEMVs ran serially, BenchmarkDecodeStepSplit's
	// two-worker step got slower. So it stays. The fused kernels share the
	// gate. With SSE2 each of their multiply-adds also decodes its weight,
	// so at the gate they carry more time than the dense kernel; the
	// AVX-512 one-row GEMV (the product table) now runs faster than the
	// dense kernel at every bench-ooc shape, and every bench-ooc fused
	// GEMV still splits with a win (EXPERIMENTS.md, "fork thresholds", has
	// the table). bench-tiny's widest decode kernel
	// (64x512 logits, 32k) stays under it. Prefill's tall GEMMs are far
	// above it on either accumulate body.
	minParallelFlops = 1 << 16
	// minColTile is the narrowest output-column tile a chunk takes: four
	// cache lines of each weight row — sixteen vectors — so column splits
	// keep streaming. At two workers shareGrain cuts every shipped shape
	// wider than this (192 columns and up). A tall GEMM's register tiles
	// split over columns only where two shares would each get this many.
	minColTile = 64
	// minParallelElems gates the per-row kernels (the norms), scalar
	// float64 loops whose per-element cost puts 1<<13 elements well past
	// a fork's, and the elementwise adds (bias and residual), which share
	// it. A decode step's norms and adds (one row of 384) stay serial; a
	// 128-row prefill's split.
	minParallelElems = 1 << 13
	// rowGrain batches rows for the per-row kernels.
	rowGrain = 4
	// minParallelActs gates GELU and SiLU. On a host with AVX an element
	// is one lane of the vector exp/tanh body, 5-7 ns serial, and forking
	// a single row crosses over between 512 and 768 elements; without AVX
	// it is a math.Tanh or math.Exp call, 15-25 ns, and forking wins from
	// 256 up. The decode-width FFN activation of bench-ooc (1x1536) splits,
	// and wins by it either way; bench-tiny's (1x256) does not, so its
	// decode never wakes the pool for an activation. The per-element
	// costs and the crossovers are in EXPERIMENTS.md ("fork thresholds").
	minParallelActs = 512
	// actGrain is the fewest activation elements a chunk takes.
	actGrain = 128
	// minAttendWork gates attention: (row, head) items x visible
	// positions x head width below which Attend stays on the calling
	// goroutine, where the serial attention costs about the fork floor
	// above, for its reasons. bench-ooc's decode attention (6 heads x 64
	// wide) reaches it at 43 cached positions and wins by forking from
	// there on (BenchmarkAttendSplit; the timings are in EXPERIMENTS.md,
	// "fork thresholds"). bench-tiny's (4 x 16) would need 256 positions
	// and its traffic stops at 144.
	minAttendWork = 1 << 14
)

// SetParallelism sets the worker count shared by every kernel in this
// package (and internal/quant's dequantizer); n <= 0 resets to
// GOMAXPROCS. It returns the previous value so callers can restore it.
// Output of every kernel is bit-identical at any setting; the workers
// come from one shared pool, so no kernel call spawns goroutines.
func SetParallelism(n int) int { return parallel.Set(n) }

// Parallelism reports the configured worker count.
func Parallelism() int { return parallel.N() }

// kernel names the chunk body a forked call runs.
type kernel uint8

const (
	kMatMulRows kernel = iota
	kMatMulCols
	kMatMulPanels
	kMatMulTRows
	kMatMulTCols
	kMatMulQ4
	kMatMulTQ4
	kAddBias
	kAdd
	kLayerNorm
	kRMSNorm
	kGELU
	kSiLU
	kAttend
	kAttendTile
)

// forkCall is the package's one forked kernel call: the operands its
// chunks need, and the chunk body handed to parallel.For. A func literal
// capturing the operands would be heap-allocated on every call once For
// publishes it to the pool, and the kernels sit on the engine's
// zero-allocation decode path; so the body is a method value bound once
// and the operands travel in this struct. One instance suffices because
// the pool runs one fork at a time anyway: a kernel that finds the call
// taken (another engine's kernel is mid-fork) runs serially, which is
// what parallel.For would have made of it.
type forkCall struct {
	busy atomic.Bool
	body func(lo, hi int)
	forkOperands
}

type forkOperands struct {
	kernel      kernel
	a, b, out   Mat
	w           quant.Packed
	cols, tile  int
	gamma, beta []float32
	eps         float32
	// Attention's operands besides q (a) and out.
	kv                        KVRows
	attn                      *AttendScratch
	pos, heads, group, ranges int
}

var fork = newForkCall()

func newForkCall() *forkCall {
	f := &forkCall{}
	f.body = f.chunk
	return f
}

// take claims the call for a kernel that wants to fork; false means run
// serially: one worker configured, or another fork is in flight.
func (f *forkCall) take() bool {
	return parallel.N() > 1 && f.busy.CompareAndSwap(false, true)
}

// run forks [0, n) over the pool with the operands the caller has set,
// then releases the call (dropping the operand references with it).
func (f *forkCall) run(k kernel, n, grain int) {
	f.kernel = k
	parallel.For(n, grain, f.body)
	f.forkOperands = forkOperands{}
	f.busy.Store(false)
}

// chunk runs indices [lo, hi) of the current call: rows, output columns,
// register-tile panels, quantization groups, elements or attention's
// item ranges, as the kernel splits.
func (f *forkCall) chunk(lo, hi int) {
	switch f.kernel {
	case kMatMulRows:
		matMulTile(f.a, f.b, f.out, lo, hi, 0, f.b.C)
	case kMatMulCols:
		matMulTile(f.a, f.b, f.out, 0, f.a.R, lo, hi)
	case kMatMulPanels:
		pw := panelWidth()
		matMulTile(f.a, f.b, f.out, 0, f.a.R, pw*lo, min(pw*hi, f.b.C))
	case kMatMulTRows:
		matMulTTile(f.a, f.b, f.out, lo, hi, 0, f.b.R)
	case kMatMulTCols:
		matMulTTile(f.a, f.b, f.out, 0, f.a.R, lo, hi)
	case kMatMulQ4:
		gs := f.w.GroupSize()
		matMulQ4Tile(f.a, f.w, f.cols, f.tile, f.out, lo*gs, hi*gs)
	case kMatMulTQ4:
		matMulTQ4Tile(f.a, f.w, f.tile, f.out, lo*quant.GemvTRows, min(hi*quant.GemvTRows, f.out.C))
	case kAddBias:
		addBiasRows(f.a, f.gamma, lo, hi)
	case kAdd:
		addRows(f.a, f.b, lo, hi)
	case kLayerNorm:
		layerNormRows(f.a, f.gamma, f.beta, f.eps, f.out, lo, hi)
	case kRMSNorm:
		rmsNormRows(f.a, f.gamma, f.eps, f.out, lo, hi)
	case kGELU:
		geluElems(f.a.Data[lo:hi])
	case kSiLU:
		siluElems(f.a.Data[lo:hi])
	case kAttend:
		attendRanges(f.a, f.kv, f.pos, f.heads, f.group, f.out, f.attn.scores, f.ranges, lo, hi)
	case kAttendTile:
		attendTileRanges(f.a, f.kv, f.pos, f.heads, f.group, f.out, f.attn, f.ranges, lo, hi)
	}
}

// shareGrain is the grain that makes the pool cut n column-like items
// into one equal share per worker instead of its usual two chunks each.
// A column tile re-reads every weight row, a narrow strip of it at a
// time, so halving a tile costs streaming efficiency (on the 1x1536x384
// dense GEMV at two workers, quarter shares give back most of what the
// split won; EXPERIMENTS.md, "fork thresholds"), and quantization groups
// are too coarse for small chunks to even out (6 groups cut 2+2+2 leave
// one of two workers idle for a third of the kernel; 3+3 does not).
func shareGrain(n, floor int) int {
	w := parallel.N()
	return max(floor, (n+w-1)/w)
}
