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
// it: rows are cached positions, columns the (possibly grouped-query)
// KV width. The engine's private append-only blockCache implements it,
// and so does a paged view into a kvcache.Pool — the attention kernel
// is identical either way, which is what makes the continuous batcher
// byte-identical to a solo engine.
type KVBlock interface {
	// AppendRow caches one position's K and V rows (copied, not
	// aliased). It may fail — a paged backend can run out of pages.
	AppendRow(k, v []float32) error
	// KRow and VRow return the cached rows of position p (read-only).
	KRow(p int) []float32
	VRow(p int) []float32
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

// Engine executes a decoder-only transformer incrementally.
//
// All per-token scratch — activations, attention scores, logits — comes
// from a per-engine arena and is recycled across forward passes, so
// steady-state decode performs no heap allocation (a measured invariant
// over a MemStore; quantized and file-backed stores add only their
// decode path's small pinned budget). The returned logits are arena
// matrices: they stay valid until the engine's next Forward, Step,
// Generate, or Reset, and must be copied to outlive that.
type Engine struct {
	cfg     model.Config
	weights WeightStore
	views   ViewStore // non-nil when weights serves zero-copy views
	layers  []model.Layer
	cache   []blockCache
	pos     int // positions already cached

	ar       *tensor.Arena
	scores   []float32    // one attention-score row, MaxSeq wide
	retained []tensor.Mat // logits handed out, reclaimed next pass
	stepTok  [1]int       // single-token batch for greedy decode loops
}

// New builds an engine over the model and weight store. A store that
// decodes into caller buffers (IntoStore: file-backed, quantized) is read
// through a per-layer memo, which hands each layer's evicted buffers to
// the next decode of the same tensor name instead of allocating a slice
// per tensor per token. The engine asks for a tensor once per layer
// visit, so the store sees exactly the fetches it would see unwrapped.
func New(cfg model.Config, w WeightStore) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w == nil {
		return nil, fmt.Errorf("infer: nil weight store")
	}
	if _, ok := w.(IntoStore); ok {
		w = newLayerMemo(w)
	}
	e := &Engine{
		cfg:     cfg,
		weights: w,
		layers:  cfg.Layers(),
		cache:   make([]blockCache, cfg.Blocks),
		ar:      tensor.NewArena(),
		scores:  make([]float32, cfg.MaxSeq),
	}
	e.views, _ = w.(ViewStore)
	for b := range e.cache {
		e.cache[b].maxRows = cfg.MaxSeq
	}
	return e, nil
}

// Reset clears the KV cache and position counter. The KV slabs and
// arena survive a reset, so a reused engine re-enters steady state
// without reallocating.
func (e *Engine) Reset() {
	e.reclaim()
	for b := range e.cache {
		e.cache[b].Truncate(0)
	}
	e.pos = 0
}

// Pos reports the number of cached positions.
func (e *Engine) Pos() int { return e.pos }

// reclaim recycles the logits handed out by the previous pass — the
// other half of the "logits valid until the next call" contract.
func (e *Engine) reclaim() {
	for _, m := range e.retained {
		e.ar.Put(m)
	}
	e.retained = e.retained[:0]
}

// retain marks an arena matrix as handed out to the caller; it is
// recycled on the next pass instead of inside this one.
func (e *Engine) retain(m tensor.Mat) {
	e.retained = append(e.retained, m)
}

// fetch reads one weight tensor, preferring the store's zero-copy view
// path. The result is read-only either way: kernels never write to
// weight tensors.
func (e *Engine) fetch(layer int, name string) ([]float32, error) {
	if e.views != nil {
		return e.views.TensorView(layer, name)
	}
	return e.weights.Tensor(layer, name)
}

// mat fetches a tensor as an r x c matrix.
func (e *Engine) mat(layer int, name string, r, c int) (tensor.Mat, error) {
	data, err := e.fetch(layer, name)
	if err != nil {
		return tensor.Mat{}, err
	}
	m, err := tensor.FromSlice(r, c, data)
	if err != nil {
		return tensor.Mat{}, fmt.Errorf("infer: L%d/%s: %w", layer, name, err)
	}
	return m, nil
}

// vec fetches a tensor as a length-n vector.
func (e *Engine) vec(layer int, name string, n int) ([]float32, error) {
	data, err := e.fetch(layer, name)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("infer: L%d/%s has %d elems, want %d", layer, name, len(data), n)
	}
	return data, nil
}

// Forward appends tokens to the context and returns the logits of the last
// position (1 x vocab). The logits are arena-backed: they stay valid
// until the engine's next Forward/Step/Reset and must be copied to
// outlive that.
func (e *Engine) Forward(tokens []int) (tensor.Mat, error) {
	e.reclaim()
	if len(tokens) == 0 {
		return tensor.Mat{}, fmt.Errorf("infer: empty token batch")
	}
	if e.pos+len(tokens) > e.cfg.MaxSeq {
		return tensor.Mat{}, fmt.Errorf("infer: context overflow (%d + %d > %d)", e.pos, len(tokens), e.cfg.MaxSeq)
	}
	x, err := e.embed(tokens, e.pos)
	if err != nil {
		return tensor.Mat{}, err
	}
	for b := 0; b < e.cfg.Blocks; b++ {
		mha := e.layers[1+2*b]
		ffn := e.layers[2+2*b]
		nx, err := e.attentionBlock(mha, &e.cache[b], e.pos, x)
		if err != nil {
			e.rollback()
			return tensor.Mat{}, err
		}
		e.ar.Put(x)
		x = nx
		if nx, err = e.ffnBlock(ffn, x); err != nil {
			e.rollback()
			return tensor.Mat{}, err
		}
		e.ar.Put(x)
		x = nx
	}
	logits, err := e.output(x)
	e.ar.Put(x)
	if err != nil {
		e.rollback()
		return tensor.Mat{}, err
	}
	e.pos += len(tokens)
	return logits, nil
}

// rollback truncates every block's KV cache back to the committed
// position after a failed forward pass. attentionBlock appends K/V rows
// per block as the layer walk progresses, so an error after block b
// would otherwise leave blocks <= b one step ahead of blocks > b — a
// retried Forward would then double-append into the early blocks and
// corrupt attention for the rest of the generation.
func (e *Engine) rollback() {
	for b := range e.cache {
		e.cache[b].Truncate(e.pos)
	}
}

// embed builds the hidden states of the new tokens starting at the given
// absolute position.
func (e *Engine) embed(tokens []int, pos int) (tensor.Mat, error) {
	l := e.layers[0]
	h := e.cfg.Hidden
	table, err := e.mat(l.Index, "w_token", e.cfg.Vocab, h)
	if err != nil {
		return tensor.Mat{}, err
	}
	var posTable tensor.Mat
	if e.cfg.Arch == model.ArchOPT {
		if posTable, err = e.mat(l.Index, "w_pos", e.cfg.MaxSeq+2, h); err != nil {
			return tensor.Mat{}, err
		}
	}
	x := e.ar.Get(len(tokens), h)
	for i, tok := range tokens {
		if tok < 0 || tok >= e.cfg.Vocab {
			e.ar.Put(x)
			return tensor.Mat{}, fmt.Errorf("infer: token %d outside vocab %d", tok, e.cfg.Vocab)
		}
		copy(x.Row(i), table.Row(tok))
		if e.cfg.Arch == model.ArchOPT {
			// OPT offsets learned positions by 2.
			prow := posTable.Row(pos + i + 2)
			row := x.Row(i)
			for j := range row {
				row[j] += prow[j]
			}
		}
	}
	return x, nil
}

// normGainName resolves which gain tensor the layer carries: decoder
// blocks use "w_norm" under Llama, while the output layer's final norm
// is stored as "w_ln" for both architectures. Consulting the layer spec
// (instead of probing the store and falling back on error) keeps the
// hot path from fabricating error values every pass.
func normGainName(layer model.Layer) string {
	for _, w := range layer.Weights {
		if w.Name == "w_norm" {
			return "w_norm"
		}
	}
	return "w_ln"
}

// norm applies the architecture's normalization using the layer's
// params, into a fresh arena matrix the caller owns.
func (e *Engine) norm(layer model.Layer, x tensor.Mat) (tensor.Mat, error) {
	h := e.cfg.Hidden
	if e.cfg.Arch == model.ArchLlama {
		gamma, err := e.vec(layer.Index, normGainName(layer), h)
		if err != nil {
			return tensor.Mat{}, err
		}
		out := e.ar.Get(x.R, x.C)
		if err := tensor.RMSNormInto(x, gamma, normEps, out); err != nil {
			e.ar.Put(out)
			return tensor.Mat{}, err
		}
		return out, nil
	}
	gamma, err := e.vec(layer.Index, "w_ln", h)
	if err != nil {
		return tensor.Mat{}, err
	}
	beta, err := e.vec(layer.Index, "b_ln", h)
	if err != nil {
		return tensor.Mat{}, err
	}
	out := e.ar.Get(x.R, x.C)
	if err := tensor.LayerNormInto(x, gamma, beta, normEps, out); err != nil {
		e.ar.Put(out)
		return tensor.Mat{}, err
	}
	return out, nil
}

// proj computes x @ W (+ bias for OPT) into a fresh arena matrix the
// caller owns.
func (e *Engine) proj(layer model.Layer, x tensor.Mat, wName, bName string, outDim int) (tensor.Mat, error) {
	w, err := e.mat(layer.Index, wName, x.C, outDim)
	if err != nil {
		return tensor.Mat{}, err
	}
	out := e.ar.Get(x.R, outDim)
	if err := tensor.MatMulInto(x, w, out); err != nil {
		e.ar.Put(out)
		return tensor.Mat{}, err
	}
	if bName != "" && e.cfg.Arch == model.ArchOPT {
		b, err := e.vec(layer.Index, bName, outDim)
		if err != nil {
			e.ar.Put(out)
			return tensor.Mat{}, err
		}
		if err := out.AddBias(b); err != nil {
			e.ar.Put(out)
			return tensor.Mat{}, err
		}
	}
	return out, nil
}

// kvNames maps the architecture's projection tensor names.
func (e *Engine) kvNames() (q, k, v, o string) {
	return "w_q", "w_k", "w_v", "w_out"
}

// attentionBlock runs pre-norm attention with the given KV cache (whose
// entries cover positions [0, pos)) and a residual connection.
func (e *Engine) attentionBlock(layer model.Layer, cache KVBlock, pos int, x tensor.Mat) (tensor.Mat, error) {
	h := e.cfg.Hidden
	nHeads := e.cfg.Heads
	headDim := h / nHeads
	kvDim := e.kvWidth()
	kvHeads := kvDim / headDim
	group := nHeads / kvHeads

	hn, err := e.norm(layer, x)
	if err != nil {
		return tensor.Mat{}, err
	}
	qName, kName, vName, oName := e.kvNames()
	q, err := e.proj(layer, hn, qName, "b_q", h)
	if err != nil {
		e.ar.Put(hn)
		return tensor.Mat{}, err
	}
	k, err := e.proj(layer, hn, kName, "b_k", kvDim)
	if err != nil {
		e.ar.Put(hn)
		e.ar.Put(q)
		return tensor.Mat{}, err
	}
	v, err := e.proj(layer, hn, vName, "b_v", kvDim)
	if err != nil {
		e.ar.Put(hn)
		e.ar.Put(q)
		e.ar.Put(k)
		return tensor.Mat{}, err
	}
	e.ar.Put(hn)

	// Rotary position embedding for LLaMA (applied to q and k).
	if e.cfg.Arch == model.ArchLlama {
		for i := 0; i < q.R; i++ {
			applyRoPE(q.Row(i), headDim, pos+i)
			applyRoPE(k.Row(i), headDim, pos+i)
		}
	}

	// Append the new positions to the cache (AppendRow copies the rows,
	// so k and v can go back to the arena right after).
	for i := 0; i < k.R; i++ {
		if err := cache.AppendRow(k.Row(i), v.Row(i)); err != nil {
			e.ar.Put(q)
			e.ar.Put(k)
			e.ar.Put(v)
			return tensor.Mat{}, err
		}
	}
	e.ar.Put(k)
	e.ar.Put(v)

	// Attention per query position and head, causally masked by
	// construction: query at absolute position pos+i sees cache entries
	// [0, pos+i]. out comes from the arena zeroed, which the dst
	// accumulation below relies on.
	out := e.ar.Get(q.R, h)
	scale := 1 / float32(math.Sqrt(float64(headDim)))
	for i := 0; i < q.R; i++ {
		limit := pos + i + 1
		qrow := q.Row(i)
		orow := out.Row(i)
		for head := 0; head < nHeads; head++ {
			qh := qrow[head*headDim : (head+1)*headDim]
			kvHead := head / group
			off := kvHead * headDim
			// Scores over the visible cache, in the engine's reusable
			// score row (every scores[p] is assigned before it is read,
			// so stale values from the previous head never leak).
			scores := e.scores[:limit]
			var maxS float32 = float32(math.Inf(-1))
			for p := 0; p < limit; p++ {
				krow := cache.KRow(p)[off : off+headDim]
				var s float32
				for d := range qh {
					s += qh[d] * krow[d]
				}
				s *= scale
				scores[p] = s
				if s > maxS {
					maxS = s
				}
			}
			var sum float32
			for p := range scores {
				ev := float32(math.Exp(float64(scores[p] - maxS)))
				scores[p] = ev
				sum += ev
			}
			inv := float32(1)
			if sum > 0 {
				inv = 1 / sum
			}
			dst := orow[head*headDim : (head+1)*headDim]
			for p := 0; p < limit; p++ {
				wgt := scores[p] * inv
				vrow := cache.VRow(p)[off : off+headDim]
				for d := range dst {
					dst[d] += wgt * vrow[d]
				}
			}
		}
	}

	e.ar.Put(q)

	attnOut, err := e.projFrom(layer, out, oName, "b_out", h)
	e.ar.Put(out)
	if err != nil {
		return tensor.Mat{}, err
	}
	if err := attnOut.Add(x); err != nil {
		e.ar.Put(attnOut)
		return tensor.Mat{}, err
	}
	return attnOut, nil
}

// projFrom is proj with an explicit input matrix width.
func (e *Engine) projFrom(layer model.Layer, x tensor.Mat, wName, bName string, outDim int) (tensor.Mat, error) {
	return e.proj(layer, x, wName, bName, outDim)
}

// kvWidth is the K/V projection width (grouped-query shrinks it).
func (e *Engine) kvWidth() int {
	return e.cfg.KVWidth()
}

// ffnWidth is the FFN intermediate width.
func (e *Engine) ffnWidth() int {
	if e.cfg.Arch == model.ArchLlama && e.cfg.FFNDim > 0 {
		return e.cfg.FFNDim
	}
	return 4 * e.cfg.Hidden
}

// applyRoPE rotates each head's even/odd pairs by the position-dependent
// angles of rotary position embedding.
func applyRoPE(row []float32, headDim, pos int) {
	for off := 0; off+headDim <= len(row); off += headDim {
		for d := 0; d < headDim; d += 2 {
			theta := float64(pos) * math.Pow(10000, -float64(d)/float64(headDim))
			sin, cos := math.Sincos(theta)
			a, b := row[off+d], row[off+d+1]
			row[off+d] = float32(float64(a)*cos - float64(b)*sin)
			row[off+d+1] = float32(float64(a)*sin + float64(b)*cos)
		}
	}
}

// ffnBlock runs the pre-norm feed-forward network with a residual.
func (e *Engine) ffnBlock(layer model.Layer, x tensor.Mat) (tensor.Mat, error) {
	h := e.cfg.Hidden
	f := e.ffnWidth()
	hn, err := e.norm(layer, x)
	if err != nil {
		return tensor.Mat{}, err
	}
	var out tensor.Mat
	if e.cfg.Arch == model.ArchLlama {
		gate, err := e.proj(layer, hn, "w_gate", "", f)
		if err != nil {
			e.ar.Put(hn)
			return tensor.Mat{}, err
		}
		up, err := e.proj(layer, hn, "w_up", "", f)
		if err != nil {
			e.ar.Put(hn)
			e.ar.Put(gate)
			return tensor.Mat{}, err
		}
		e.ar.Put(hn)
		gate.SiLU()
		if err := gate.Mul(up); err != nil {
			e.ar.Put(gate)
			e.ar.Put(up)
			return tensor.Mat{}, err
		}
		e.ar.Put(up)
		out, err = e.proj(layer, gate, "w_down", "", h)
		e.ar.Put(gate)
		if err != nil {
			return tensor.Mat{}, err
		}
	} else {
		mid, err := e.proj(layer, hn, "w_fc1", "b_fc1", f)
		if err != nil {
			e.ar.Put(hn)
			return tensor.Mat{}, err
		}
		e.ar.Put(hn)
		mid.GELU()
		out, err = e.proj(layer, mid, "w_fc2", "b_fc2", h)
		e.ar.Put(mid)
		if err != nil {
			return tensor.Mat{}, err
		}
	}
	if err := out.Add(x); err != nil {
		e.ar.Put(out)
		return tensor.Mat{}, err
	}
	return out, nil
}

// output applies the final norm and the logit projection for the last
// position only. The returned logits are retained arena storage: they
// stay valid until the engine's next pass.
func (e *Engine) output(x tensor.Mat) (tensor.Mat, error) {
	l := e.layers[len(e.layers)-1]
	last := e.ar.Get(1, x.C)
	copy(last.Row(0), x.Row(x.R-1))
	hn, err := e.norm(l, last)
	e.ar.Put(last)
	if err != nil {
		return tensor.Mat{}, err
	}
	table, err := e.mat(l.Index, "w_token", e.cfg.Vocab, e.cfg.Hidden)
	if err != nil {
		e.ar.Put(hn)
		return tensor.Mat{}, err
	}
	logits := e.ar.Get(1, e.cfg.Vocab)
	err = tensor.MatMulTInto(hn, table, logits)
	e.ar.Put(hn)
	if err != nil {
		e.ar.Put(logits)
		return tensor.Mat{}, err
	}
	e.retain(logits)
	return logits, nil
}

// Generate runs greedy decoding: prefill the prompt, then emit n tokens.
func (e *Engine) Generate(prompt []int, n int) ([]int, error) {
	//lint:helmvet-ignore ctxflow compatibility shim: the no-ctx API deliberately anchors an undeadlined generation
	return e.GenerateContext(context.Background(), prompt, n)
}

// GenerateContext is Generate under a per-generation context: the
// deadline or cancellation is checked between forward passes, so a
// stalled storage tier bounds the damage to one token's worth of work
// instead of hanging the request forever.
func (e *Engine) GenerateContext(ctx context.Context, prompt []int, n int) ([]int, error) {
	if ctx == nil {
		//lint:helmvet-ignore ctxflow nil-ctx guard: callers passing nil get the documented undeadlined behavior
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
