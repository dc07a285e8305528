package infer

import (
	"context"
	"fmt"
	"slices"

	"helmsim/internal/model"
	"helmsim/internal/quant"
	"helmsim/internal/tensor"
)

// StepSeq is one sequence's contribution to an iteration-level step:
// the tokens it feeds this step (empty = sit the step out), the number
// of positions it already has cached, and its per-block KV storage.
// The storage is owned by the caller — a continuous batcher hands in
// paged views, the solo Engine hands in its private caches — so
// sequences can join and leave between steps without the engine holding
// any per-sequence state.
type StepSeq struct {
	// Tokens are the positions to feed this step: the uncached prompt
	// suffix at prefill, one sampled token per decode step.
	Tokens []int
	// Pos is the number of positions already cached (the absolute
	// position of Tokens[0]).
	Pos int
	// KV holds one KVBlock per decoder block.
	KV []KVBlock
}

// fusedMaxRows is the tallest stacked activation the engine runs through
// the fused 4-bit kernels; anything taller (a prefill, a step that mixes
// one in) dequantizes the tensor once into the engine's slab and runs
// the dense kernel, whose row split shares a tall input evenly where the
// fused kernel re-decodes each tile per column share. Height is per
// projection, not per step: the last block of a prefill step keeps one
// row per sequence past its K/V projections (forward), so its Q, out and
// FFN projections and the logits take the fused kernels whenever the
// step has at most this many sequences. On the bench-ooc
// shapes (tensor.BenchmarkQ4Crossover) the crossover has stayed between
// 8 and 16 rows with the scalar kernels and with the SSE2 ones. Decoding
// in registers now runs every step up to this height on AVX-512 (one row
// everywhere): at two to eight rows the stacked in-register GEMV is
// 1.3–1.8× faster than one in-register call per row and 2.2–5.7× faster
// than the shared scratch decode, so the fused path wins by more below
// the crossover, and the crossover itself, above 8 rows, did not move.
// So 8 — which writes no f32 copy of the weight and is also the widest
// decode step the daemons ship with — stays. The tables are in
// EXPERIMENTS.md ("decode in registers", "the widest vector level",
// "the product table", "stacked steps in registers").
const fusedMaxRows = 8

// StepEngine advances an arbitrary set of sequences one iteration at a
// time. A step stacks the rows of every active sequence into one
// activation matrix, so each layer's weights are fetched once and each
// normalization, projection, FFN and logit kernel runs once per step,
// over all sequences' rows together; only what depends on a sequence's
// own history — rotary position, KV append, the attention core — runs per
// sequence, on its row range. Only each sequence's last row reaches the
// logits, so the last block runs on every row only as far as the K/V
// rows every position caches, and from its Q projection on, on one row
// per sequence (forward). Every kernel involved computes an output row
// from its own input row alone (DESIGN §3c), so a sequence's logits
// carry the same bits whoever shares its step and however many of its
// rows run. It is the substrate of the solo Engine and the continuous
// batcher: the engine holds no sequence state, so the set of sequences
// may change freely between calls.
//
// All per-step scratch — activations, attention scores, logits — comes
// from a per-engine arena and is recycled across steps, so steady-state
// decode performs no heap allocation (a measured invariant over a
// MemStore; quantized and file-backed stores add only their decode
// path's small pinned budget).
type StepEngine struct {
	cfg    model.Config
	layers []model.Layer
	ld     *loader

	ar *tensor.Arena
	// attn is tensor.Attend's scratch: the gathered K blocks and V rows
	// of one block's cache, one MaxSeq-wide score row per item range a
	// forked attention can have running — a handful, set by the worker
	// count — or six per range on the register tiles, and the tiles' K
	// and V panels, one block's K/V rows wide and as long as the longest
	// prefill context yet. Never per step row.
	attn   tensor.AttendScratch
	rope   []float64  // one head's rotary (sin, cos) pairs at the row being rotated (LLaMA only)
	logits tensor.Mat // the last step's logits, one row per advanced sequence; reclaimed by the next
	// slab is the dequantization target for packed tensors the fused
	// kernels do not take; it grows to the largest such tensor and holds
	// one tensor at a time.
	slab []float32
	// rows and out are per-step scratch reused across Step calls:
	// sequence i owns rows [rows[i], rows[i+1]) of the stacked matrices.
	rows []int
	out  []tensor.Mat
}

// NewStepEngine builds an iteration-level engine over the model and
// weight store. Its loader reads each layer's tensors once per layer
// visit, in the foreground, by the cheapest path the store offers:
// packed views, decode-into recycled buffers, zero-copy views, plain
// copies.
func NewStepEngine(cfg model.Config, w WeightStore) (*StepEngine, error) {
	return newStepEngine(cfg, w, Retry{})
}

// NewStepEnginePrefetched is NewStepEngine with a prefetching loader —
// layer L+1 streams in while layer L computes — and a foreground retry
// policy absorbing transient fetch failures. Cancelling ctx aborts the
// prefetcher; Close the engine to stop it.
func NewStepEnginePrefetched(ctx context.Context, cfg model.Config, w WeightStore, r Retry) (*StepEngine, error) {
	se, err := newStepEngine(cfg, w, r)
	if err != nil {
		return nil, err
	}
	se.ld.ctx, se.ld.cancel = context.WithCancel(ctx)
	return se, nil
}

func newStepEngine(cfg model.Config, w WeightStore, r Retry) (*StepEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layers := cfg.Layers()
	ld, err := newLoader(layers, w, r)
	if err != nil {
		return nil, err
	}
	se := &StepEngine{
		cfg:    cfg,
		layers: layers,
		ld:     ld,
		ar:     tensor.NewArena(),
		attn:   tensor.NewAttendScratch(cfg.MaxSeq),
	}
	if cfg.Arch == model.ArchLlama {
		se.rope = make([]float64, cfg.Hidden/cfg.Heads)
	}
	return se, nil
}

// Config reports the model the engine serves.
func (se *StepEngine) Config() model.Config { return se.cfg }

// reclaim recycles the logits handed out by the previous step — the
// other half of the "logits valid until the next call" contract.
func (se *StepEngine) reclaim() {
	se.ar.Put(se.logits)
	se.logits = tensor.Mat{}
}

// Step advances every sequence with non-empty Tokens by one iteration
// and returns the last-position logits per advanced sequence (zero Mat
// for skipped ones). The logits are row views of one arena matrix: they
// stay valid until the engine's next Step and must be copied to outlive
// it. Position bookkeeping stays with the caller: on success each
// advanced sequence has len(Tokens) new positions cached and the caller
// advances Pos; on error the step is atomic — every sequence's KV is
// truncated back to its Pos, so a retried or rescheduled step cannot
// double-append and no two blocks ever disagree on cache length.
func (se *StepEngine) Step(seqs []*StepSeq) ([]tensor.Mat, error) {
	se.reclaim()
	rows, err := se.layout(seqs)
	if err != nil {
		return nil, err
	}
	out, err := se.forward(seqs, rows)
	if err != nil {
		for i, s := range seqs {
			if rows[i+1] == rows[i] {
				continue
			}
			for _, kb := range s.KV {
				kb.Truncate(s.Pos)
			}
		}
		return nil, err
	}
	return out, nil
}

// layout validates every sequence of the step — before anything is
// allocated, fetched or appended, so a bad sequence costs the others
// nothing — and assigns each active one its row range in the stacked
// activation matrices: sequence i owns rows [rows[i], rows[i+1]).
func (se *StepEngine) layout(seqs []*StepSeq) ([]int, error) {
	cfg := se.cfg
	if cap(se.rows) <= len(seqs) {
		se.rows = make([]int, len(seqs)+1)
	}
	rows := se.rows[:len(seqs)+1]
	total := 0
	for i, s := range seqs {
		rows[i] = total
		if s == nil || len(s.Tokens) == 0 {
			continue
		}
		if len(s.KV) != cfg.Blocks {
			return nil, fmt.Errorf("infer: sequence %d has %d KV blocks, want %d", i, len(s.KV), cfg.Blocks)
		}
		if s.Pos < 0 {
			return nil, fmt.Errorf("infer: sequence %d has negative position %d", i, s.Pos)
		}
		if s.Pos+len(s.Tokens) > cfg.MaxSeq {
			return nil, fmt.Errorf("infer: sequence %d context overflow (%d + %d > %d)", i, s.Pos, len(s.Tokens), cfg.MaxSeq)
		}
		for _, tok := range s.Tokens {
			if tok < 0 || tok >= cfg.Vocab {
				return nil, fmt.Errorf("infer: sequence %d: token %d outside vocab %d", i, tok, cfg.Vocab)
			}
		}
		total += len(s.Tokens)
	}
	rows[len(seqs)] = total
	if total == 0 {
		return nil, fmt.Errorf("infer: empty step")
	}
	return rows, nil
}

// forward is the one forward pass of the package: embed, then per block
// attention and FFN over the stacked rows, then logits. Only each
// sequence's last row reaches the logits, so where a sequence feeds more
// than one token the last block keeps just those rows: its norm and K/V
// projections still cover every row — every position's K/V is cached —
// but its Q projection, attention core, out projection, residual and
// FFN run on one row per active sequence (see attention). A step where
// every sequence feeds one token keeps every row, and its last block is
// every other block's. On error the KV caches may hold this step's
// partial appends; Step truncates them.
func (se *StepEngine) forward(seqs []*StepSeq, rows []int) ([]tensor.Mat, error) {
	x, err := se.embed(seqs, rows)
	if err != nil {
		return nil, err
	}
	for blk := 0; blk < se.cfg.Blocks; blk++ {
		keep := blk == se.cfg.Blocks-1 && x.R > active(rows)
		nx, err := se.attention(se.layers[1+2*blk], blk, seqs, rows, x, keep)
		se.ar.Put(x)
		if err != nil {
			return nil, err
		}
		x = nx
		nx, err = se.ffnBlock(se.layers[2+2*blk], x)
		se.ar.Put(x)
		if err != nil {
			return nil, err
		}
		x = nx
	}
	out, err := se.output(seqs, rows, x)
	se.ar.Put(x)
	return out, err
}

// active counts the sequences that feed tokens this step.
func active(rows []int) int {
	n := 0
	for i := range len(rows) - 1 {
		if rows[i+1] > rows[i] {
			n++
		}
	}
	return n
}

// lastRows copies each active sequence's last row of m, in sequence
// order, into a fresh arena matrix the caller owns.
func (se *StepEngine) lastRows(rows []int, m tensor.Mat) tensor.Mat {
	last := se.ar.Get(active(rows), m.C)
	a := 0
	for i := range len(rows) - 1 {
		if rows[i+1] > rows[i] {
			copy(last.Row(a), m.Row(rows[i+1]-1))
			a++
		}
	}
	return last
}

// mat is one of the layer's tensors, in place, with its matrix shape
// checked. The name is found by a scan of the layer's few spec names, not
// a map.
func (b *layerBundle) mat(name string, r, c int) (*weight, error) {
	n := 0
	j := slices.Index(b.names, name)
	if j >= 0 {
		n = b.data[j].len()
	}
	if j < 0 || n != r*c {
		return nil, fmt.Errorf("infer: L%d/%s: %dx%d needs %d values, got %d", b.layer, name, r, c, r*c, n)
	}
	return &b.data[j], nil
}

// vec is one of the layer's tensors as a length-n f32 vector. Norm gains
// and biases are stored raw by this repo's writer; one that arrives
// packed anyway gets a slice of its own, because a norm holds two vectors
// at once and the slab holds one tensor.
func (b *layerBundle) vec(name string, n int) ([]float32, error) {
	w, err := b.mat(name, 1, n)
	if err != nil {
		return nil, err
	}
	if w.packed {
		return w.q.DequantizeInto(nil), nil
	}
	return w.f32, nil
}

// dense returns the tensor's f32 values: its own when it was fetched
// decoded, the engine's slab — overwritten by the next call — when it
// arrived packed.
func (se *StepEngine) dense(w *weight) []float32 {
	if !w.packed {
		return w.f32
	}
	se.slab = w.q.DequantizeInto(se.slab)
	return se.slab
}

// tableRows reads single rows of an r x c lookup table. A packed table
// whose rows are whole groups decodes just the row asked for — the
// embedding tables are the largest tensors of a small model, and a
// decode step reads one row of each; any other table is read from its
// dense form (for a packed one: the engine's slab, so one table at a
// time).
type tableRows struct {
	c     int
	q     *quant.Packed
	byRow bool
	full  []float32
}

func (se *StepEngine) tableRows(t *weight, c int) tableRows {
	if t.packed && c%t.q.GroupSize() == 0 {
		return tableRows{c: c, q: &t.q, byRow: true}
	}
	return tableRows{c: c, full: se.dense(t)}
}

// read fills dst (length c) with row r.
func (t *tableRows) read(dst []float32, r int) {
	if t.byRow {
		t.q.DecodeRange(dst, r*t.c)
		return
	}
	copy(dst, t.full[r*t.c:(r+1)*t.c])
}

// embed builds the stacked hidden states of every active sequence's new
// tokens: sequence i's token j lands in row rows[i]+j, at absolute
// position Pos+j.
func (se *StepEngine) embed(seqs []*StepSeq, rows []int) (tensor.Mat, error) {
	b, err := se.ld.layer(se.layers[0].Index)
	if err != nil {
		return tensor.Mat{}, err
	}
	h := se.cfg.Hidden
	w, err := b.mat("w_token", se.cfg.Vocab, h)
	if err != nil {
		return tensor.Mat{}, err
	}
	x := se.ar.Get(rows[len(seqs)], h)
	table := se.tableRows(w, h)
	for i, s := range seqs {
		for j := range rows[i+1] - rows[i] {
			table.read(x.Row(rows[i]+j), s.Tokens[j])
		}
	}
	if se.cfg.Arch != model.ArchOPT {
		return x, nil
	}
	if w, err = b.mat("w_pos", se.cfg.MaxSeq+2, h); err != nil {
		se.ar.Put(x)
		return tensor.Mat{}, err
	}
	table = se.tableRows(w, h)
	prow := se.ar.Get(1, h)
	defer se.ar.Put(prow)
	for i, s := range seqs {
		for j := range rows[i+1] - rows[i] {
			// OPT offsets learned positions by 2.
			table.read(prow.Data, s.Pos+j+2)
			row := x.Row(rows[i] + j)
			for d := range row {
				row[d] += prow.Data[d]
			}
		}
	}
	return x, nil
}

// norm applies the architecture's normalization using the layer's
// params, into a fresh arena matrix the caller owns.
func (se *StepEngine) norm(b *layerBundle, x tensor.Mat) (tensor.Mat, error) {
	h := se.cfg.Hidden
	if se.cfg.Arch == model.ArchLlama {
		// Decoder blocks carry their gain as "w_norm"; the output layer's
		// final norm is stored as "w_ln" for both architectures.
		gain := "w_norm"
		if !slices.Contains(b.names, gain) {
			gain = "w_ln"
		}
		gamma, err := b.vec(gain, h)
		if err != nil {
			return tensor.Mat{}, err
		}
		out := se.ar.Get(x.R, x.C)
		if err := tensor.RMSNormInto(x, gamma, normEps, out); err != nil {
			se.ar.Put(out)
			return tensor.Mat{}, err
		}
		return out, nil
	}
	gamma, err := b.vec("w_ln", h)
	if err != nil {
		return tensor.Mat{}, err
	}
	beta, err := b.vec("b_ln", h)
	if err != nil {
		return tensor.Mat{}, err
	}
	out := se.ar.Get(x.R, x.C)
	if err := tensor.LayerNormInto(x, gamma, beta, normEps, out); err != nil {
		se.ar.Put(out)
		return tensor.Mat{}, err
	}
	return out, nil
}

// proj computes x @ W (+ bias for OPT) into a fresh arena matrix the
// caller owns. x is the step's stacked rows, or in the last block of a
// step that feeds a prompt, past the K/V projections, one row per
// sequence (forward). A packed W under a short x is decoded tile by tile
// inside the GEMM, once for all of x's rows; otherwise it is dequantized
// into the slab first. Which kernel runs depends on what was fetched and
// on x's height, never on a setting, and both store the same bits.
func (se *StepEngine) proj(b *layerBundle, x tensor.Mat, wName, bName string, outDim int) (tensor.Mat, error) {
	w, err := b.mat(wName, x.C, outDim)
	if err != nil {
		return tensor.Mat{}, err
	}
	out := se.ar.Get(x.R, outDim)
	if w.packed && x.R <= fusedMaxRows && tensor.Q4Fusable(w.q, outDim) {
		err = tensor.MatMulQ4Into(x, w.q, outDim, out)
	} else {
		err = tensor.MatMulInto(x, tensor.Mat{R: x.C, C: outDim, Data: se.dense(w)}, out)
	}
	if err == nil && bName != "" && se.cfg.Arch == model.ArchOPT {
		var bias []float32
		if bias, err = b.vec(bName, outDim); err == nil {
			err = out.AddBias(bias)
		}
	}
	if err != nil {
		se.ar.Put(out)
		return tensor.Mat{}, err
	}
	return out, nil
}

// rowRange is the view of rows [r0, r1) of m.
func rowRange(m tensor.Mat, r0, r1 int) tensor.Mat {
	return tensor.Mat{R: r1 - r0, C: m.C, Data: m.Data[r0*m.C : r1*m.C]}
}

// attention runs one block's pre-norm attention with a residual
// connection: normalization and the Q/K/V and output projections once
// over the stacked rows, the attention core once per sequence over its
// own rows and KV cache. With keep (the last block of a step that feeds
// some sequence more than one token) the norm and the K/V projections
// still run over every row and every row's K/V is appended, but the Q
// projection, the core, the out projection and the residual run only on
// each active sequence's last row, which attends at its own position
// once all of its sequence's rows are cached; the result has one row
// per active sequence. Every kernel computes an output row from its own
// input row, so the kept rows carry the bits they would have had
// among all rows.
func (se *StepEngine) attention(layer model.Layer, blk int, seqs []*StepSeq, rows []int, x tensor.Mat, keep bool) (tensor.Mat, error) {
	b, err := se.ld.layer(layer.Index)
	if err != nil {
		return tensor.Mat{}, err
	}
	h := se.cfg.Hidden
	kvDim := se.cfg.KVWidth()
	hn, err := se.norm(b, x)
	if err != nil {
		return tensor.Mat{}, err
	}
	defer se.ar.Put(hn)
	qin, res := hn, x
	if keep {
		qin, res = se.lastRows(rows, hn), se.lastRows(rows, x)
		defer se.ar.Put(qin)
		defer se.ar.Put(res)
	}
	q, err := se.proj(b, qin, "w_q", "b_q", h)
	if err != nil {
		return tensor.Mat{}, err
	}
	defer se.ar.Put(q)
	k, err := se.proj(b, hn, "w_k", "b_k", kvDim)
	if err != nil {
		return tensor.Mat{}, err
	}
	defer se.ar.Put(k)
	v, err := se.proj(b, hn, "w_v", "b_v", kvDim)
	if err != nil {
		return tensor.Mat{}, err
	}
	defer se.ar.Put(v)

	// out comes from the arena zeroed, which attend's accumulation
	// relies on.
	out := se.ar.Get(q.R, h)
	defer se.ar.Put(out)
	a := 0
	for i, s := range seqs {
		r0, r1 := rows[i], rows[i+1]
		if r0 == r1 {
			continue
		}
		q0, q1 := r0, r1
		if keep {
			q0, q1 = a, a+1
		}
		a++
		if err := se.attend(s.KV[blk], s.Pos, rowRange(q, q0, q1), rowRange(k, r0, r1), rowRange(v, r0, r1), rowRange(out, q0, q1)); err != nil {
			return tensor.Mat{}, err
		}
	}
	attnOut, err := se.proj(b, out, "w_out", "b_out", h)
	if err != nil {
		return tensor.Mat{}, err
	}
	if err := attnOut.Add(res); err != nil {
		se.ar.Put(attnOut)
		return tensor.Mat{}, err
	}
	return attnOut, nil
}

// attend is the per-sequence part of attention: rotate the sequence's
// new k rows — positions pos, pos+1, ... — and its q rows, which are the
// last q.R of those positions, append k and v to its cache (whose
// entries cover positions [0, pos)), and accumulate into out — zeroed on
// entry — each q row's attention over the cache up to its position.
func (se *StepEngine) attend(cache KVBlock, pos int, q, k, v, out tensor.Mat) error {
	nHeads := se.cfg.Heads
	headDim := se.cfg.Hidden / nHeads
	group := nHeads / (k.C / headDim)
	skip := k.R - q.R // positions with k rows but no q row

	// Rotary position embedding for LLaMA (applied to q and k).
	if se.cfg.Arch == model.ArchLlama {
		for i := 0; i < k.R; i++ {
			ropeAngles(se.rope, pos+i)
			if i >= skip {
				applyRoPE(q.Row(i-skip), se.rope)
			}
			applyRoPE(k.Row(i), se.rope)
		}
	}
	// AppendRow copies the rows, so k and v stay the caller's.
	for i := 0; i < k.R; i++ {
		if err := cache.AppendRow(k.Row(i), v.Row(i)); err != nil {
			return err
		}
	}
	tensor.Attend(q, cache, pos+skip, nHeads, group, out, &se.attn)
	return nil
}

// ffnWidth is the FFN intermediate width.
func (se *StepEngine) ffnWidth() int {
	if se.cfg.Arch == model.ArchLlama && se.cfg.FFNDim > 0 {
		return se.cfg.FFNDim
	}
	return 4 * se.cfg.Hidden
}

// ffnBlock runs the pre-norm feed-forward network with a residual.
func (se *StepEngine) ffnBlock(layer model.Layer, x tensor.Mat) (tensor.Mat, error) {
	b, err := se.ld.layer(layer.Index)
	if err != nil {
		return tensor.Mat{}, err
	}
	h := se.cfg.Hidden
	f := se.ffnWidth()
	hn, err := se.norm(b, x)
	if err != nil {
		return tensor.Mat{}, err
	}
	defer se.ar.Put(hn)
	var out tensor.Mat
	if se.cfg.Arch == model.ArchLlama {
		gate, err := se.proj(b, hn, "w_gate", "", f)
		if err != nil {
			return tensor.Mat{}, err
		}
		defer se.ar.Put(gate)
		up, err := se.proj(b, hn, "w_up", "", f)
		if err != nil {
			return tensor.Mat{}, err
		}
		defer se.ar.Put(up)
		gate.SiLU()
		if err := gate.Mul(up); err != nil {
			return tensor.Mat{}, err
		}
		if out, err = se.proj(b, gate, "w_down", "", h); err != nil {
			return tensor.Mat{}, err
		}
	} else {
		mid, err := se.proj(b, hn, "w_fc1", "b_fc1", f)
		if err != nil {
			return tensor.Mat{}, err
		}
		defer se.ar.Put(mid)
		mid.GELU()
		if out, err = se.proj(b, mid, "w_fc2", "b_fc2", h); err != nil {
			return tensor.Mat{}, err
		}
	}
	if err := out.Add(x); err != nil {
		se.ar.Put(out)
		return tensor.Mat{}, err
	}
	return out, nil
}

// output applies the final norm and the logit projection to the last
// block's rows — by then one per advanced sequence, in sequence order
// (see forward) — and hands each sequence its row of the result. The
// logits matrix is retained arena storage: it stays valid until the
// engine's next step.
func (se *StepEngine) output(seqs []*StepSeq, rows []int, x tensor.Mat) ([]tensor.Mat, error) {
	b, err := se.ld.layer(se.layers[len(se.layers)-1].Index)
	if err != nil {
		return nil, err
	}
	hn, err := se.norm(b, x)
	if err != nil {
		return nil, err
	}
	defer se.ar.Put(hn)
	table, err := b.mat("w_token", se.cfg.Vocab, se.cfg.Hidden)
	if err != nil {
		return nil, err
	}
	logits := se.ar.Get(x.R, se.cfg.Vocab)
	if table.packed && x.R <= fusedMaxRows && tensor.Q4Fusable(table.q, se.cfg.Hidden) {
		err = tensor.MatMulTQ4Into(hn, table.q, logits)
	} else {
		err = tensor.MatMulTInto(hn, tensor.Mat{R: se.cfg.Vocab, C: se.cfg.Hidden, Data: se.dense(table)}, logits)
	}
	if err != nil {
		se.ar.Put(logits)
		return nil, err
	}
	se.logits = logits

	if cap(se.out) < len(seqs) {
		se.out = make([]tensor.Mat, len(seqs))
	}
	out := se.out[:len(seqs)]
	clear(out)
	a := 0
	for i := range seqs {
		if rows[i+1] > rows[i] {
			out[i] = rowRange(logits, a, a+1)
			a++
		}
	}
	return out, nil
}

// NewBlockCaches builds one private append-only KVBlock per decoder
// block — the storage a solo sequence uses when no paged pool backs it.
// The blocks pre-size their row slabs to the model's MaxSeq, so
// steady-state appends allocate nothing.
func NewBlockCaches(cfg model.Config) []KVBlock {
	kv := make([]KVBlock, cfg.Blocks)
	for i := range kv {
		kv[i] = &blockCache{maxRows: cfg.MaxSeq}
	}
	return kv
}
