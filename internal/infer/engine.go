package infer

import (
	"context"
	"fmt"
	"math"

	"helmsim/internal/model"
	"helmsim/internal/tensor"
)

// normEps is the normalization epsilon.
const normEps = 1e-5

// KVBlock is one decoder block's KV cache as the attention path uses
// it: the K blocks and V rows tensor.Attend reads (tensor.KVRows, called
// from several goroutines at once between appends), plus what the engine
// needs to grow and roll back the cache. The engine's private append-only
// blockCache implements it, and so does a paged view into a
// kvcache.Pool — the attention kernel is identical either way, which is
// what makes the continuous batcher byte-identical to a solo engine.
type KVBlock interface {
	tensor.KVRows
	// AppendRow caches one position's K and V rows (copied, not
	// aliased). It may fail — a paged backend can run out of pages.
	AppendRow(k, v []float32) error
	// Len reports cached positions.
	Len() int
	// Truncate discards cached positions >= n (no-op when Len() <= n):
	// the rollback hook that keeps a failed step from leaving blocks
	// disagreeing on cache length.
	Truncate(n int)
}

// blockCache is one decoder block's KV cache: cached positions, each a
// K and a V row of the (possibly grouped-query) KV width. V is a row per
// position; K is kept in blocks of tensor.KBlockPositions positions,
// each d-major (block b's row d holds its positions' element d side by
// side, the layout Attend's score lanes read), so that K is stored once.
// Both live in flat slabs, sized on the first append to maxRows (the
// engine sets it to the model's MaxSeq) so that steady-state appends are
// copy-only; a cache that outgrows them (callers bound length by MaxSeq
// before appending, so only a zero-value blockCache does) doubles them.
type blockCache struct {
	maxRows      int
	width, n     int
	kslab, vslab []float32
}

// AppendRow implements KVBlock by copying the rows; the first append
// fixes the cache's width.
func (c *blockCache) AppendRow(k, v []float32) error {
	if c.vslab == nil {
		c.width = len(k)
	}
	if len(k) != c.width || len(v) != c.width || c.width == 0 {
		return fmt.Errorf("infer: KV rows %d and %d wide for a cache of width %d", len(k), len(v), c.width)
	}
	const bp = tensor.KBlockPositions
	if c.n*c.width == len(c.vslab) {
		rows := (max(c.maxRows, 2*c.n, bp) + bp - 1) / bp * bp
		c.kslab = append(make([]float32, 0, rows*c.width), c.kslab...)[:rows*c.width]
		c.vslab = append(make([]float32, 0, rows*c.width), c.vslab...)[:rows*c.width]
	}
	kb, j := c.kslab[c.n/bp*bp*c.width:], c.n%bp
	for d, x := range k {
		kb[d*bp+j] = x
	}
	copy(c.vslab[c.n*c.width:], v)
	c.n++
	return nil
}

// KBlock implements KVBlock: from p to the end of its sixteen-position
// block, rows sixteen apart.
func (c *blockCache) KBlock(p int) ([]float32, int, int) {
	const bp = tensor.KBlockPositions
	b, j := p/bp, p%bp
	return c.kslab[b*bp*c.width+j : (b+1)*bp*c.width], bp - j, bp
}

// VRow implements KVBlock.
func (c *blockCache) VRow(p int) []float32 { return c.vslab[p*c.width : (p+1)*c.width] }

// Len implements KVBlock.
func (c *blockCache) Len() int { return c.n }

// Truncate implements KVBlock.
func (c *blockCache) Truncate(n int) { c.n = min(c.n, max(n, 0)) }

// Engine executes a decoder-only transformer incrementally for one
// sequence: a StepEngine stepped with a single sequence over private,
// append-only block caches. It is the reference the batched paths are
// compared against, and it is that by construction — there is one
// forward pass in the package, and this is it at batch one.
//
// The returned logits are arena-backed: they stay valid until the
// engine's next Forward, Generate, or Reset, and must be copied to
// outlive that.
type Engine struct {
	se      *StepEngine
	cache   []blockCache
	seq     StepSeq
	seqs    [1]*StepSeq
	stepTok [1]int // single-token batch for greedy decode loops
}

// New builds an engine over the model and weight store.
func New(cfg model.Config, w WeightStore) (*Engine, error) {
	se, err := NewStepEngine(cfg, w)
	if err != nil {
		return nil, err
	}
	e := &Engine{se: se, cache: make([]blockCache, cfg.Blocks)}
	e.seq.KV = make([]KVBlock, cfg.Blocks)
	for b := range e.cache {
		e.cache[b].maxRows = cfg.MaxSeq
		e.seq.KV[b] = &e.cache[b]
	}
	e.seqs[0] = &e.seq
	return e, nil
}

// Reset clears the KV cache and position counter. The KV slabs and
// arena survive a reset, so a reused engine re-enters steady state
// without reallocating.
func (e *Engine) Reset() {
	e.se.reclaim()
	for b := range e.cache {
		e.cache[b].Truncate(0)
	}
	e.seq.Pos = 0
}

// Pos reports the number of cached positions.
func (e *Engine) Pos() int { return e.seq.Pos }

// Forward appends tokens to the context and returns the logits of the last
// position (1 x vocab). A failed pass leaves the context as it was (see
// StepEngine.Step), so it can be retried verbatim.
func (e *Engine) Forward(tokens []int) (tensor.Mat, error) {
	if len(tokens) == 0 {
		return tensor.Mat{}, fmt.Errorf("infer: empty token batch")
	}
	e.seq.Tokens = tokens
	out, err := e.se.Step(e.seqs[:])
	if err != nil {
		return tensor.Mat{}, err
	}
	e.seq.Pos += len(tokens)
	return out[0], nil
}

// ropeAngles fills sc, one head wide, with the rotary angles of position
// pos: sc[d], sc[d+1] = sin, cos of pos·10000^(−d/len(sc)) for each even
// d. They depend on the position and the pair alone, so one fill serves
// every q and k head of a row.
func ropeAngles(sc []float64, pos int) {
	headDim := len(sc)
	for d := 0; d < headDim; d += 2 {
		theta := float64(pos) * math.Pow(10000, -float64(d)/float64(headDim))
		sc[d], sc[d+1] = math.Sincos(theta)
	}
}

// applyRoPE rotates each head's even/odd pairs of row by the angles in sc
// (ropeAngles; the head width is len(sc)).
func applyRoPE(row []float32, sc []float64) {
	headDim := len(sc)
	for off := 0; off+headDim <= len(row); off += headDim {
		for d := 0; d < headDim; d += 2 {
			sin, cos := sc[d], sc[d+1]
			a, b := row[off+d], row[off+d+1]
			row[off+d] = float32(float64(a)*cos - float64(b)*sin)
			row[off+d+1] = float32(float64(a)*sin + float64(b)*cos)
		}
	}
}

// Generate runs greedy decoding: prefill the prompt, then emit n tokens.
func (e *Engine) Generate(prompt []int, n int) ([]int, error) {
	return e.GenerateContext(context.Background(), prompt, n)
}

// GenerateContext is Generate under a per-generation context: the
// deadline or cancellation is checked between forward passes, so a
// stalled storage tier bounds the damage to one token's worth of work
// instead of hanging the request forever.
func (e *Engine) GenerateContext(ctx context.Context, prompt []int, n int) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(prompt) == 0 {
		return nil, fmt.Errorf("infer: empty prompt")
	}
	if n <= 0 {
		return nil, fmt.Errorf("infer: non-positive generation length %d", n)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("infer: generation aborted before prefill: %w", err)
	}
	logits, err := e.Forward(prompt)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, n)
	next := logits.ArgmaxRow(0)
	out = append(out, next)
	for len(out) < n {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("infer: generation aborted after %d/%d tokens: %w", len(out), n, err)
		}
		e.stepTok[0] = next
		if logits, err = e.Forward(e.stepTok[:]); err != nil {
			return nil, err
		}
		next = logits.ArgmaxRow(0)
		out = append(out, next)
	}
	return out, nil
}
