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
// it: the rows tensor.Attend reads (tensor.KVRows, called from several
// goroutines at once between appends), plus what the engine needs to
// grow and roll back the cache. The engine's private append-only
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

// blockCache is one decoder block's KV cache: rows are cached positions,
// columns the (possibly grouped-query) KV width. With maxRows set (the
// engine sets it to the model's MaxSeq) the rows live in two flat slabs
// allocated once on first append, so steady-state appends are
// copy-only; a zero-value blockCache degrades to per-row allocation.
type blockCache struct {
	maxRows      int
	width        int
	kslab, vslab []float32
	k, v         [][]float32
}

// AppendRow implements KVBlock by copying the rows.
func (c *blockCache) AppendRow(k, v []float32) error {
	if c.maxRows > 0 {
		if c.width == 0 && len(k) > 0 {
			c.width = len(k)
			c.kslab = make([]float32, c.maxRows*c.width)
			c.vslab = make([]float32, c.maxRows*c.width)
			c.k = make([][]float32, 0, c.maxRows)
			c.v = make([][]float32, 0, c.maxRows)
		}
		if n := len(c.k); len(k) == c.width && len(v) == c.width && n < c.maxRows {
			kr := c.kslab[n*c.width : (n+1)*c.width : (n+1)*c.width]
			vr := c.vslab[n*c.width : (n+1)*c.width : (n+1)*c.width]
			copy(kr, k)
			copy(vr, v)
			c.k = append(c.k, kr)
			c.v = append(c.v, vr)
			return nil
		}
		// Shape surprise or overflow past maxRows: fall through to
		// per-row allocation rather than fail (callers bound length by
		// MaxSeq before appending).
	}
	c.k = append(c.k, append([]float32(nil), k...))
	c.v = append(c.v, append([]float32(nil), v...))
	return nil
}

// KRow implements KVBlock.
func (c *blockCache) KRow(p int) []float32 { return c.k[p] }

// VRow implements KVBlock.
func (c *blockCache) VRow(p int) []float32 { return c.v[p] }

// Len implements KVBlock.
func (c *blockCache) Len() int { return len(c.k) }

// Truncate implements KVBlock.
func (c *blockCache) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if len(c.k) > n {
		c.k = c.k[:n]
		c.v = c.v[:n]
	}
}

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
