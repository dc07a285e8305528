// Package tensor provides the small dense linear-algebra kernel set the
// executable inference engine (internal/infer) runs on: row-major float32
// matrices, matmul, layer/RMS norm, the GELU/SiLU activations of the OPT
// and LLaMA decoder blocks, and the attention core (scores over a KV
// cache, causal softmax, weighted sum of V rows).
//
// These are plain row-major loops, not a BLAS: the one cache blocking is
// the tall GEMM's. What they do have is inner loops written for the
// pipeline — the matmul accumulate takes four k per pass with the running
// sum in a register and two output rows per pass where there are two, a
// GEMM taller than a decode step runs register tiles of 6 rows x 16 (or
// 32) columns whose sums stay in registers across all of k, over panels of
// b that stay in cache across the rows (a prefill's attention runs its
// two GEMMs per head, QKᵀ and PV, on the same tiles), and the transposed
// matmul runs four dot products at once so the adds overlap, as a decode
// step's attention scores do — and parallelism: the matmuls, norms, activations and attention split
// their index spaces over the
// shared fork-join of internal/parallel (rows when the batch is tall,
// one tile of output columns per worker when it is not, and one share of
// register-tile panels per worker for the register tiles), at decode as
// well as at prefill: a fork costs the caller well under a microsecond
// while a decode step keeps the pool's worker awake, so anything from
// ~16 µs of work up is split (the thresholds in parallel.go say why each
// sits where it does). None of it changes what an output element
// computes — its terms, one at a time, in ascending k — so output is
// bit-identical to the textbook loop at any SetParallelism value,
// whichever goroutine ran which chunk (DESIGN §3c).
//
// Three leaves are assembly on amd64 (kernels_amd64.s): the accumulate
// (axpy4, axpy4x2) in baseline SSE2, four output columns per vector; the
// tall GEMM's register tile in AVX (tile6x16, eight columns per vector)
// or AVX-512 (tile6x32, sixteen); and the transcendentals of GELU, SiLU
// and softmax (geluAVX, siluAVX, expShiftAVX) in AVX, four float64 lanes
// of exp and tanh per vector — each wide body where CPUID says the host
// has its level (internal/quant's probe). A lane is one output
// element keeping its own chain, each operation rounded as the scalar
// instructions round it (for exp and tanh: math.Exp's non-FMA body,
// instruction for instruction, its branches as lane selects), so the
// bits are those of the Go loops — which stay in the package as
// axpy4Ref, tileRef, geluRef, siluRef and expShiftRef: the whole
// implementation on every other GOARCH, and the references the
// differential, guard-page and fuzz tests in asm_test.go, tile_test.go
// and transcendental_test.go hold every body to. That is the rule for
// assembly here: only for a leaf loop with an untagged Go twin and a
// differential test; one body per CPU level, chosen once from CPUID and
// taken only where a workload shows the win; the Go twin or SSE2 the
// tail handler and the only body on a host without AVX.
//
// The engine exists to execute the paper's computation faithfully at
// laptop scale, while the performance questions are answered by the
// calibrated simulator; fast kernels are what make the executable
// grounding usable for real batch/seq sweeps (cf. HeteGen's multi-core,
// vector-wide CPU path).
package tensor

import (
	"fmt"
	"math"

	"helmsim/internal/parallel"
)

// Mat is a row-major matrix.
type Mat struct {
	// R and C are the dimensions.
	R, C int
	// Data holds R*C values, row-major.
	Data []float32
}

// New allocates a zero matrix.
func New(r, c int) Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", r, c))
	}
	return Mat{R: r, C: c, Data: make([]float32, r*c)}
}

// FromSlice wraps data as an r x c matrix, validating the length.
func FromSlice(r, c int, data []float32) (Mat, error) {
	if r < 0 || c < 0 || len(data) != r*c {
		return Mat{}, fmt.Errorf("tensor: %dx%d needs %d values, got %d", r, c, r*c, len(data))
	}
	return Mat{R: r, C: c, Data: data}, nil
}

// At reads element (i, j).
func (m Mat) At(i, j int) float32 { return m.Data[i*m.C+j] }

// Set writes element (i, j).
func (m Mat) Set(i, j int, v float32) { m.Data[i*m.C+j] = v }

// Row returns row i as a slice view.
func (m Mat) Row(i int) []float32 { return m.Data[i*m.C : (i+1)*m.C] }

// Clone deep-copies the matrix.
func (m Mat) Clone() Mat {
	out := New(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// MatMul computes a @ b for a (r x k) and b (k x c).
//
// The work is split over the shared worker pool (see SetParallelism):
// row tiles when there are enough rows, column tiles of the output when
// there are not (a decode step's activation has a single row), and
// column shares for a tall GEMM that runs register tiles. Every split
// leaves every output element's k-accumulation order untouched, so
// the result is bit-identical to the serial loop at any worker count —
// including NaN/Inf propagation, since no term is ever skipped.
func MatMul(a, b Mat) (Mat, error) {
	out := New(a.R, b.C)
	if err := MatMulInto(a, b, out); err != nil {
		return Mat{}, err
	}
	return out, nil
}

// MatMulInto is MatMul writing into a caller-provided a.R x b.C output
// (typically from an Arena). out is fully overwritten — it is zeroed
// before the accumulation so a recycled dirty buffer yields the same
// bits as a fresh one. out must not alias a or b.
func MatMulInto(a, b, out Mat) error {
	if a.C != b.R {
		return fmt.Errorf("tensor: matmul shape mismatch (%dx%d)@(%dx%d)", a.R, a.C, b.R, b.C)
	}
	if out.R != a.R || out.C != b.C {
		return fmt.Errorf("tensor: matmul output %dx%d for (%dx%d)@(%dx%d)", out.R, out.C, a.R, a.C, b.R, b.C)
	}
	clear(out.Data)
	if a.R*a.C*b.C < minParallelFlops || !fork.take() {
		matMulTile(a, b, out, 0, a.R, 0, b.C)
		return nil
	}
	fork.a, fork.b, fork.out = a, b, out
	switch {
	case a.R > tallGEMMRows && wideAccumulate && b.C >= 2*minColTile:
		// Register tiles reuse each panel of b across every row of a
		// share, so the tall GEMM splits its columns: one share of whole
		// panels per worker, each streaming its part of b once. Split
		// over rows, every chunk would stream all of b again.
		pw := panelWidth()
		panels := (b.C + pw - 1) / pw
		fork.run(kMatMulPanels, panels, max(1, panels/parallel.N()))
	case a.R >= parallel.N():
		fork.run(kMatMulRows, a.R, 1)
	default:
		fork.run(kMatMulCols, b.C, shareGrain(b.C, minColTile))
	}
	return nil
}

// tallGEMMRows is the most rows a dense GEMM may have and still run as
// two-row SSE2 passes; a taller one runs register tiles (see
// matMulTile). It is the engine's fusedMaxRows (internal/infer): the
// GEMMs above it are prefill and the steps that mix a prefill in, which
// reach MatMulInto through the slab and keep the core in wide code for
// milliseconds at a time. At or below it are decode steps, whose dense
// GEMVs and small stacked GEMMs are short, sparse bursts between
// attention, norms and fetches; there 256-bit code pays the core's
// upper-lane warm-up again and again, and taking it there too measured
// slower on the fleet workload's small model (EXPERIMENTS.md, "prefill
// at the core's vector width"). The wide decode bodies are the fused
// 4-bit kernels' AVX-512 leaves in internal/quant, the GEMV — one row,
// or a stacked step of up to tallGEMMRows rows (matMulQ4Tile) — and
// the packed logits: they are most of an out-of-core decode step, and
// each won end to end without costing the fleet (EXPERIMENTS.md, "the
// widest vector level", "logits at sixteen lanes" and "stacked steps in
// registers").
const tallGEMMRows = 8

// matMulTile accumulates the output tile rows [rlo, rhi) x columns
// [clo, chi) — a row tile, a column share, or the whole output. A GEMM
// taller than tallGEMMRows on a host with AVX runs it as register tiles:
// panels of panelWidth columns on the outside (tile6x32 on AVX-512,
// tile6x16 on AVX; on AVX-512 a sixteen-column rest takes one more
// tile6x16 panel), six-row blocks inside, so a panel of b is streamed
// from memory once and then served from cache to every block of the
// share, and each tile's sums stay in registers across all of k. The
// rows and columns past the last whole tile take matMulPairs. Every
// output element still adds its terms one at a time in ascending k,
// whichever body runs it, so the tiling changes no bit.
func matMulTile(a, b, out Mat, rlo, rhi, clo, chi int) {
	if a.R <= tallGEMMRows || !wideAccumulate {
		matMulPairs(a, b, out, rlo, rhi, clo, chi)
		return
	}
	r6, c := rlo+(rhi-rlo)/6*6, clo
	if wide512 {
		for ; c+32 <= chi; c += 32 {
			for i := rlo; i < r6; i += 6 {
				tile6x32(out.Data[i*out.C+c:], out.C, a.Data[i*a.C:], a.C, b.Data[c:], b.C, a.C)
			}
		}
	}
	for ; c+16 <= chi; c += 16 {
		for i := rlo; i < r6; i += 6 {
			tile6x16(out.Data[i*out.C+c:], out.C, a.Data[i*a.C:], a.C, b.Data[c:], b.C, a.C)
		}
	}
	if c < chi {
		matMulPairs(a, b, out, rlo, r6, c, chi)
	}
	if r6 < rhi {
		matMulPairs(a, b, out, r6, rhi, clo, chi)
	}
}

// panelWidth is the columns of one register-tile panel: the width of
// the widest tile the host runs, and the unit MatMulInto splits a tall
// GEMM's columns in.
func panelWidth() int {
	if wide512 {
		return 32
	}
	return 16
}

// matMulPairs is matMulTile without register tiles: it consumes four k
// per pass with the running sum in a register, so an output element is
// loaded and stored once per four terms instead of once per term, and
// two output rows per pass where the tile has them, so each weight
// vector is loaded once for both (the vectorised accumulate is bound by
// re-streaming b, not by arithmetic). Each element still adds its terms
// one at a time in ascending k, which is what keeps the result
// bit-identical to the one-k-per-pass loop and independent of the tiling
// and of the pairing.
func matMulPairs(a, b, out Mat, rlo, rhi, clo, chi int) {
	i := rlo
	for ; i+2 <= rhi; i += 2 {
		a0, a1 := a.Row(i), a.Row(i+1)
		o0, o1 := out.Row(i)[clo:chi], out.Row(i + 1)[clo:chi]
		k := 0
		for ; k+4 <= a.C; k += 4 {
			axpy4x2(o0, o1, a0[k:k+4], a1[k:k+4], b.Row(k)[clo:], b.Row(k + 1)[clo:], b.Row(k + 2)[clo:], b.Row(k + 3)[clo:])
		}
		for ; k < a.C; k++ {
			axpy(o0, a0[k], b.Row(k)[clo:])
			axpy(o1, a1[k], b.Row(k)[clo:])
		}
	}
	for ; i < rhi; i++ { // the odd last row
		arow := a.Row(i)
		o := out.Row(i)[clo:chi]
		k := 0
		for ; k+4 <= a.C; k += 4 {
			axpy4(o, arow[k], arow[k+1], arow[k+2], arow[k+3],
				b.Row(k)[clo:], b.Row(k + 1)[clo:], b.Row(k + 2)[clo:], b.Row(k + 3)[clo:])
		}
		for ; k < a.C; k++ {
			axpy(o, arow[k], b.Row(k)[clo:])
		}
	}
}

// tileRef is the reference body of the register tiles, six rows by
// width columns: each element adds its k terms in ascending k, the
// product rounded before the sum (see axpy4Ref). It is what the tile
// tests hold tile6x16 and tile6x32 to.
func tileRef(o []float32, ldo int, a []float32, lda int, b []float32, ldb, k, width int) {
	for i := 0; i < 6; i++ {
		for j := 0; j < width; j++ {
			t := o[i*ldo+j]
			for kk := 0; kk < k; kk++ {
				t += float32(a[i*lda+kk] * b[kk*ldb+j])
			}
			o[i*ldo+j] = t
		}
	}
}

// axpy4Ref is the reference body of axpy4: the whole implementation off
// amd64, and what the differential tests hold the assembly to. Each
// product is written float32(a*b): the Go spec lets a compiler fuse
// x*y + z into one rounding (arm64's does) and an explicit conversion
// forbids it, so every GOARCH rounds the product and then the sum, as the
// SSE2 body does. The conversion costs nothing where nothing fuses.
func axpy4Ref(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		t := o[j]
		t += float32(a0 * b0[j])
		t += float32(a1 * b1[j])
		t += float32(a2 * b2[j])
		t += float32(a3 * b3[j])
		o[j] = t
	}
}

// axpy4x2Ref is the reference body of axpy4x2: two independent rows.
func axpy4x2Ref(o0, o1, a0, a1, b0, b1, b2, b3 []float32) {
	axpy4Ref(o0, a0[0], a0[1], a0[2], a0[3], b0, b1, b2, b3)
	axpy4Ref(o1[:len(o0)], a1[0], a1[1], a1[2], a1[3], b0, b1, b2, b3)
}

// axpy adds the single term av*b[j] to every element of o: the k tail
// (K mod 4 terms of a row; none on any shipped shape, so it stays Go on
// every architecture). The product is converted for axpy4Ref's reason.
func axpy(o []float32, av float32, b []float32) {
	b = b[:len(o)]
	for j := range o {
		o[j] += float32(av * b[j])
	}
}

// MatMulT computes a @ bᵀ for a (r x k) and b (c x k) — the layout of
// output-embedding logits against a token table. Parallel like MatMul:
// each output element is an independent dot product, so any contiguous
// split is bit-identical to serial.
func MatMulT(a, b Mat) (Mat, error) {
	out := New(a.R, b.R)
	if err := MatMulTInto(a, b, out); err != nil {
		return Mat{}, err
	}
	return out, nil
}

// MatMulTInto is MatMulT writing into a caller-provided a.R x b.R
// output. Every element of out is assigned, so recycled buffers are
// safe. out must not alias a or b.
func MatMulTInto(a, b, out Mat) error {
	if a.C != b.C {
		return fmt.Errorf("tensor: matmulT shape mismatch (%dx%d)@(%dx%d)T", a.R, a.C, b.R, b.C)
	}
	if out.R != a.R || out.C != b.R {
		return fmt.Errorf("tensor: matmulT output %dx%d for (%dx%d)@(%dx%d)T", out.R, out.C, a.R, a.C, b.R, b.C)
	}
	if a.R*a.C*b.R < minParallelFlops || !fork.take() {
		matMulTTile(a, b, out, 0, a.R, 0, b.R)
		return nil
	}
	fork.a, fork.b, fork.out = a, b, out
	if a.R >= parallel.N() {
		fork.run(kMatMulTRows, a.R, 1)
	} else {
		// One query row against a large token table: split the table.
		fork.run(kMatMulTCols, b.R, minColTile)
	}
	return nil
}

// matMulTTile fills output rows [rlo, rhi) x columns [clo, chi) of
// a @ bᵀ, four columns per pass (see dot4From).
func matMulTTile(a, b, out Mat, rlo, rhi, clo, chi int) {
	for i := rlo; i < rhi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		j := clo
		for ; j+4 <= chi; j += 4 {
			orow[j], orow[j+1], orow[j+2], orow[j+3] = dot4From(0, 0, 0, 0, arow, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
		}
		for ; j < chi; j++ {
			orow[j] = dot(arow, b.Row(j))
		}
	}
}

// dot is the serial inner product: one sum, terms added in ascending k.
func dot(x, y []float32) float32 { return dotFrom(0, x, y) }

// dotFrom continues an inner product from the partial sum s, so a dot
// taken in k-chunks adds the same terms in the same order as one taken
// whole. The product is converted so that no GOARCH fuses it into the
// add (see axpy4Ref).
func dotFrom(s float32, x, y []float32) float32 {
	for k := range x {
		s += float32(x[k] * y[k])
	}
	return s
}

// dot4From continues four inner products against one x from four
// partial sums (see dotFrom) in a single pass. A lone s += x*y chain
// waits out the add latency on every term; four independent chains keep
// the adder busy. Each sum is still its own ascending-k chain, so every
// result carries the bits dotFrom returns. Only the first len(x)
// elements of each y are read.
func dot4From(s0, s1, s2, s3 float32, x, y0, y1, y2, y3 []float32) (float32, float32, float32, float32) {
	y0, y1, y2, y3 = y0[:len(x)], y1[:len(x)], y2[:len(x)], y3[:len(x)]
	for k, xv := range x {
		s0 += float32(xv * y0[k])
		s1 += float32(xv * y1[k])
		s2 += float32(xv * y2[k])
		s3 += float32(xv * y3[k])
	}
	return s0, s1, s2, s3
}

// AddBias adds a length-C bias vector to every row in place. From
// minParallelElems up the rows are split over the worker pool, as the
// norms split theirs; each element is one add either way.
func (m Mat) AddBias(bias []float32) error {
	if len(bias) != m.C {
		return fmt.Errorf("tensor: bias length %d for width %d", len(bias), m.C)
	}
	if len(m.Data) < minParallelElems || !fork.take() {
		addBiasRows(m, bias, 0, m.R)
		return nil
	}
	fork.a, fork.gamma = m, bias
	fork.run(kAddBias, m.R, rowGrain)
	return nil
}

// addBiasRows adds bias to rows [lo, hi) of m.
func addBiasRows(m Mat, bias []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// Add adds other element-wise in place, its rows split over the worker
// pool from minParallelElems up, as AddBias splits.
func (m Mat) Add(other Mat) error {
	if m.R != other.R || m.C != other.C {
		return fmt.Errorf("tensor: add shape mismatch %dx%d vs %dx%d", m.R, m.C, other.R, other.C)
	}
	if len(m.Data) < minParallelElems || !fork.take() {
		addRows(m, other, 0, m.R)
		return nil
	}
	fork.a, fork.b = m, other
	fork.run(kAdd, m.R, rowGrain)
	return nil
}

// addRows adds rows [lo, hi) of other to m's.
func addRows(m, other Mat, lo, hi int) {
	d, o := m.Data[lo*m.C:hi*m.C], other.Data[lo*m.C:hi*m.C]
	for i := range d {
		d[i] += o[i]
	}
}

// LayerNormInto normalizes each row of x to zero mean / unit variance
// and applies gamma and beta (OPT's normalization), writing into a
// caller-provided x.R x x.C output. Every element of out is assigned.
// out must not alias x.
func LayerNormInto(x Mat, gamma, beta []float32, eps float32, out Mat) error {
	if len(gamma) != x.C || len(beta) != x.C {
		return fmt.Errorf("tensor: layernorm params %d/%d for width %d", len(gamma), len(beta), x.C)
	}
	if out.R != x.R || out.C != x.C {
		return fmt.Errorf("tensor: layernorm output %dx%d for input %dx%d", out.R, out.C, x.R, x.C)
	}
	if len(x.Data) < minParallelElems || !fork.take() {
		layerNormRows(x, gamma, beta, eps, out, 0, x.R)
		return nil
	}
	fork.a, fork.out, fork.gamma, fork.beta, fork.eps = x, out, gamma, beta, eps
	fork.run(kLayerNorm, x.R, rowGrain)
	return nil
}

// layerNormRows normalizes rows [lo, hi) — each row owned by one worker,
// accumulation order identical to the serial kernel.
func layerNormRows(x Mat, gamma, beta []float32, eps float32, out Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(len(row))
		var varsum float64
		for _, v := range row {
			d := float64(v) - mean
			varsum += d * d
		}
		inv := 1 / math.Sqrt(varsum/float64(len(row))+float64(eps))
		orow := out.Row(i)
		for j, v := range row {
			orow[j] = float32((float64(v)-mean)*inv)*gamma[j] + beta[j]
		}
	}
}

// RMSNormInto applies LLaMA's root-mean-square normalization with gamma
// to each row of x, writing into a caller-provided x.R x x.C output.
// Every element of out is assigned. out must not alias x.
func RMSNormInto(x Mat, gamma []float32, eps float32, out Mat) error {
	if len(gamma) != x.C {
		return fmt.Errorf("tensor: rmsnorm params %d for width %d", len(gamma), x.C)
	}
	if out.R != x.R || out.C != x.C {
		return fmt.Errorf("tensor: rmsnorm output %dx%d for input %dx%d", out.R, out.C, x.R, x.C)
	}
	if len(x.Data) < minParallelElems || !fork.take() {
		rmsNormRows(x, gamma, eps, out, 0, x.R)
		return nil
	}
	fork.a, fork.out, fork.gamma, fork.eps = x, out, gamma, eps
	fork.run(kRMSNorm, x.R, rowGrain)
	return nil
}

// rmsNormRows normalizes rows [lo, hi), serial accumulation order per row.
func rmsNormRows(x Mat, gamma []float32, eps float32, out Mat, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := x.Row(i)
		var ms float64
		for _, v := range row {
			ms += float64(v) * float64(v)
		}
		inv := 1 / math.Sqrt(ms/float64(len(row))+float64(eps))
		orow := out.Row(i)
		for j, v := range row {
			orow[j] = float32(float64(v)*inv) * gamma[j]
		}
	}
}

// GELU applies the tanh-approximated Gaussian error linear unit in place
// (OPT's FFN activation).
func (m Mat) GELU() {
	if len(m.Data) < minParallelActs || !fork.take() {
		geluElems(m.Data)
		return
	}
	fork.a = m
	fork.run(kGELU, len(m.Data), actGrain)
}

// geluRef is GELU's scalar body: the Go twin of geluAVX, the n mod 4
// tail of every call that takes it, and the whole of every GELU on a
// host without AVX.
// It takes two elements per pass, both tanh arguments formed before
// either call, so the core runs one element's arithmetic under the
// other's math.Tanh. Each element's float64 operations are those of the
// one-element tail, in the same order.
func geluRef(data []float32) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	i := 0
	for ; i+2 <= len(data); i += 2 {
		x0, x1 := widen(data[i]), widen(data[i+1])
		u0, u1 := c*(x0+0.044715*x0*x0*x0), c*(x1+0.044715*x1*x1*x1)
		t0 := math.Tanh(u0)
		t1 := math.Tanh(u1)
		data[i], data[i+1] = float32(0.5*x0*(1+t0)), float32(0.5*x1*(1+t1))
	}
	if i < len(data) {
		x := widen(data[i])
		data[i] = float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	}
}

// widen is float64(v), bit for bit (TestWidenExhaustive holds it to that
// over every float32). It exists for its instruction, not its value: on
// amd64 float64(v) is CVTSS2SD, which writes only the low half of its
// destination register and so waits for whatever last wrote that register
// — in geluRef, a register holding the previous element's result, which
// put every element behind the previous math.Tanh. A normal number widens
// exactly in integer registers (sign kept, exponent rebiased by 1023-127
// = 896, mantissa shifted up 29 bits) and enters the float unit by a
// full-register move; zero, subnormals, Inf and NaN take the conversion.
func widen(v float32) float64 {
	b := math.Float32bits(v)
	if e := b >> 23 & 0xff; e == 0 || e == 0xff {
		return float64(v)
	}
	return math.Float64frombits(uint64(b>>31)<<63 | (uint64(b&0x7fffffff)<<29 + 896<<52))
}

// SiLU applies x*sigmoid(x) in place (LLaMA's gate activation).
func (m Mat) SiLU() {
	if len(m.Data) < minParallelActs || !fork.take() {
		siluElems(m.Data)
		return
	}
	fork.a = m
	fork.run(kSiLU, len(m.Data), actGrain)
}

// siluRef is SiLU's scalar body, the Go twin of siluAVX (see geluRef).
func siluRef(data []float32) {
	for i, v := range data {
		x := float64(v)
		data[i] = float32(x / (1 + math.Exp(-x)))
	}
}

// Mul multiplies element-wise in place (the gated-FFN product).
func (m Mat) Mul(other Mat) error {
	if m.R != other.R || m.C != other.C {
		return fmt.Errorf("tensor: mul shape mismatch %dx%d vs %dx%d", m.R, m.C, other.R, other.C)
	}
	for i := range m.Data {
		m.Data[i] *= other.Data[i]
	}
	return nil
}

// ArgmaxRow returns the index of the largest value in row i.
func (m Mat) ArgmaxRow(i int) int {
	row := m.Row(i)
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}
