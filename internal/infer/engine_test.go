package infer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"helmsim/internal/model"
	"helmsim/internal/tensor"
)

// tinyOPT is a laptop-scale OPT-style model.
func tinyOPT() model.Config {
	return model.Config{
		Name: "OPT-tiny", Hidden: 32, Heads: 4, Blocks: 2,
		Vocab: 64, MaxSeq: 48, DTypeBytes: 2,
	}
}

// tinyLlama is a laptop-scale LLaMA-style model with grouped-query
// attention (4 query heads sharing 2 KV heads) and a gated FFN.
func tinyLlama() model.Config {
	c := model.Config{
		Name: "Llama-tiny", Hidden: 32, Heads: 4, Blocks: 2,
		Vocab: 64, MaxSeq: 48, DTypeBytes: 2,
	}
	return c.WithLlama(2, 48)
}

func newEngine(t *testing.T, cfg model.Config, seed int64) *Engine {
	t.Helper()
	ws, err := RandomWeights(cfg, seed, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestForwardShapesAndFiniteness(t *testing.T) {
	for _, cfg := range []model.Config{tinyOPT(), tinyLlama()} {
		e := newEngine(t, cfg, 1)
		logits, err := e.Forward([]int{1, 2, 3})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if logits.R != 1 || logits.C != cfg.Vocab {
			t.Fatalf("%s logits shape %dx%d", cfg.Name, logits.R, logits.C)
		}
		for _, v := range logits.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s produced non-finite logits", cfg.Name)
			}
		}
		if e.Pos() != 3 {
			t.Errorf("%s pos = %d", cfg.Name, e.Pos())
		}
	}
}

// kRow gathers position p's K row, width wide, out of its cache block.
func kRow(kv KVBlock, p, width int) []float32 {
	k, _, stride := kv.KBlock(p)
	row := make([]float32, width)
	for d := range row {
		row[d] = k[d*stride]
	}
	return row
}

// The exact prefill oracle: a prompt fed as one step stores the bits of
// the same prompt fed one token per step — the final logits and every
// block's cached K and V rows — whichever kernels the two heights take
// (the fused 4-bit GEMV against the slab GEMM, the per-row attention
// against the register tiles, every block against a last block that
// keeps one row). Prompts of 1, 5, 8, 9, 13, 40 and 128 tokens (both
// sides of fusedMaxRows, and heights that are and are not whole six-row
// tiles), on f32 weights (OPT, grouped-query LLaMA with heads 8 and 16
// wide) and on the mmap'd 4-bit bench-tiny and bench-ooc checkpoints;
// then one step that mixes a decoding sequence with two prompts, one
// continuing a cached prefix, against the same oracle.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	withSeq := func(c model.Config, maxSeq int) model.Config { c.MaxSeq = maxSeq; return c }
	llama16 := model.Config{Name: "Llama-16", Hidden: 64, Heads: 4, Blocks: 2, Vocab: 64, MaxSeq: 128, DTypeBytes: 2}.WithLlama(2, 96)
	type tc struct {
		name  string
		cfg   model.Config
		store func(t *testing.T, cfg model.Config) WeightStore
	}
	f32 := func(t *testing.T, cfg model.Config) WeightStore {
		ws, err := RandomWeights(cfg, 7, 0.08)
		if err != nil {
			t.Fatal(err)
		}
		return ws
	}
	mmap := func(t *testing.T, cfg model.Config) WeightStore {
		fs, err := OpenFileStoreMmap(writeTestCheckpoint(t, cfg, 7))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		return fs
	}
	for _, c := range []tc{
		{"f32", withSeq(tinyOPT(), 128), f32},
		{"f32", withSeq(tinyLlama(), 128), f32},
		{"f32", llama16, f32},
		{"q4", benchTiny(), mmap},
		{"q4", benchOOC(), mmap},
	} {
		t.Run(c.cfg.Name+"/"+c.name, func(t *testing.T) {
			se, err := NewStepEngine(c.cfg, c.store(t, c.cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			rng := rand.New(rand.NewSource(17))
			tokens := make([]int, 128)
			for i := range tokens {
				tokens[i] = rng.Intn(c.cfg.Vocab)
			}
			// The oracle: one token per step, the logits after each.
			inc := &StepSeq{KV: NewBlockCaches(c.cfg)}
			want := make([][]float32, len(tokens))
			for i, tok := range tokens {
				inc.Tokens = []int{tok}
				out, err := se.Step([]*StepSeq{inc})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = append([]float32(nil), out[0].Data...)
				inc.Pos++
			}
			check := func(name string, s *StepSeq, logits tensor.Mat) {
				t.Helper()
				n := s.Pos + len(s.Tokens)
				assertSameBits(t, name+": logits", want[n-1], logits.Data)
				for blk, kv := range s.KV {
					if kv.Len() != n {
						t.Fatalf("%s: block %d caches %d positions, want %d", name, blk, kv.Len(), n)
					}
					for p := 0; p < n; p++ {
						assertSameBits(t, fmt.Sprintf("%s: block %d K row %d", name, blk, p), kRow(inc.KV[blk], p, c.cfg.KVWidth()), kRow(kv, p, c.cfg.KVWidth()))
						assertSameBits(t, fmt.Sprintf("%s: block %d V row %d", name, blk, p), inc.KV[blk].VRow(p), kv.VRow(p))
					}
				}
			}
			for _, n := range []int{1, 5, 8, 9, 13, 40, 128} {
				s := &StepSeq{Tokens: tokens[:n], KV: NewBlockCaches(c.cfg)}
				out, err := se.Step([]*StepSeq{s})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%d-token prefill", n), s, out[0])
			}

			// A mixed step: a sequence decoding its seventh token, a
			// 13-token prompt, and 31 tokens after a 9-token cached prefix.
			prefixed := func(pos, n int) *StepSeq {
				s := &StepSeq{KV: NewBlockCaches(c.cfg)}
				if pos > 0 {
					s.Tokens = tokens[:pos]
					if _, err := se.Step([]*StepSeq{s}); err != nil {
						t.Fatal(err)
					}
				}
				s.Tokens, s.Pos = tokens[pos:pos+n], pos
				return s
			}
			seqs := []*StepSeq{prefixed(6, 1), prefixed(0, 13), nil, prefixed(9, 31)}
			out, err := se.Step(seqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range seqs {
				if s != nil {
					check(fmt.Sprintf("mixed step, sequence %d", i), s, out[i])
				}
			}
		})
	}
}

// assertSameBits fails unless got holds want's float32 bit patterns.
func assertSameBits(t *testing.T, name string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: element %d = %v (%#08x), want %v (%#08x)", name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// Causality: extending the context must not change what the model would
// have predicted at an earlier position.
func TestCausality(t *testing.T) {
	cfg := tinyOPT()
	a := newEngine(t, cfg, 3)
	la, err := a.Forward([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Same engine weights, same first two tokens, different continuation:
	// the logits after the first two tokens must be identical.
	b := newEngine(t, cfg, 3)
	lb, err := b.Forward([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range la.Data {
		if la.Data[i] != lb.Data[i] {
			t.Fatalf("same prefix diverged at %d", i)
		}
	}
	// And future tokens don't rewrite the cache of past ones.
	if _, err := b.Forward([]int{60}); err != nil {
		t.Fatal(err)
	}
	if b.Pos() != 3 {
		t.Errorf("pos = %d", b.Pos())
	}
}

func TestGenerateDeterministicAndResetWorks(t *testing.T) {
	cfg := tinyLlama()
	e1 := newEngine(t, cfg, 11)
	out1, err := e1.Generate([]int{1, 2, 3, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != 6 {
		t.Fatalf("generated %d tokens", len(out1))
	}
	for _, tok := range out1 {
		if tok < 0 || tok >= cfg.Vocab {
			t.Fatalf("token %d outside vocab", tok)
		}
	}
	e2 := newEngine(t, cfg, 11)
	out2, err := e2.Generate([]int{1, 2, 3, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("same weights diverged at %d", i)
		}
	}
	// Reset replays identically on the same engine.
	e1.Reset()
	if e1.Pos() != 0 {
		t.Errorf("pos after reset = %d", e1.Pos())
	}
	out3, err := e1.Generate([]int{1, 2, 3, 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out1 {
		if out1[i] != out3[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

// Quantized weights (decoded per use, FlexGen's serving mode) produce
// outputs close to the raw weights, and the read counter observes one
// fetch per tensor per forward.
func TestQuantizedServingCloseToRaw(t *testing.T) {
	cfg := tinyOPT()
	raw, err := RandomWeights(cfg, 21, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	qs := memCheckpoint(t, cfg, raw)
	eRaw, err := New(cfg, raw)
	if err != nil {
		t.Fatal(err)
	}
	eQ, err := New(cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{3, 1, 4, 1, 5}
	lr, err := eRaw.Forward(prompt)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := eQ.Forward(prompt)
	if err != nil {
		t.Fatal(err)
	}
	// Correlated outputs: the argmax usually survives 4-bit noise on a
	// tiny model; assert bounded relative error instead of equality.
	var se, ss float64
	for i := range lr.Data {
		d := float64(lr.Data[i] - lq.Data[i])
		se += d * d
		ss += float64(lr.Data[i]) * float64(lr.Data[i])
	}
	if rel := math.Sqrt(se / ss); rel > 0.5 {
		t.Errorf("quantized logits relative error %.3f too large", rel)
	}
	// One fetch per tensor per forward: a read of the quantized
	// projections and embedding tables, and the raw norm gains and biases
	// beside them served from the resident arena.
	if got, want := qs.Reads(), weightCount(cfg)-residentCount(cfg); got != want {
		t.Errorf("read counter = %d, want one per non-resident tensor (%d)", got, want)
	}
	if _, got := qs.Resident(); got != residentCount(cfg) {
		t.Errorf("resident fetches = %d, want one per norm and bias (%d)", got, residentCount(cfg))
	}
}

// Grouped-query attention halves the cached KV width for tinyLlama (2 KV
// heads over 4 query heads).
func TestGQACacheWidth(t *testing.T) {
	cfg := tinyLlama()
	e := newEngine(t, cfg, 2)
	if _, err := e.Forward([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := e.cache[0].width; got != cfg.Hidden/2 {
		t.Errorf("KV width = %d, want %d", got, cfg.Hidden/2)
	}
	// OPT caches the full width.
	o := newEngine(t, tinyOPT(), 2)
	if _, err := o.Forward([]int{1}); err != nil {
		t.Fatal(err)
	}
	if got := o.cache[0].width; got != tinyOPT().Hidden {
		t.Errorf("OPT KV width = %d", got)
	}
}

func TestEngineValidation(t *testing.T) {
	cfg := tinyOPT()
	ws, _ := RandomWeights(cfg, 1, 0.1)
	if _, err := New(model.Config{}, ws); err == nil {
		t.Errorf("invalid config accepted")
	}
	if _, err := New(cfg, nil); err == nil {
		t.Errorf("nil store accepted")
	}
	e, _ := New(cfg, ws)
	if _, err := e.Forward(nil); err == nil {
		t.Errorf("empty forward accepted")
	}
	if _, err := e.Forward([]int{999}); err == nil {
		t.Errorf("out-of-vocab token accepted")
	}
	if _, err := e.Forward([]int{-1}); err == nil {
		t.Errorf("negative token accepted")
	}
	if _, err := e.Generate(nil, 3); err == nil {
		t.Errorf("empty prompt accepted")
	}
	if _, err := e.Generate([]int{1}, 0); err == nil {
		t.Errorf("zero gen accepted")
	}
	// Context overflow.
	long := make([]int, cfg.MaxSeq+1)
	if _, err := e.Forward(long); err == nil {
		t.Errorf("context overflow accepted")
	}
}

func TestRandomWeightsValidation(t *testing.T) {
	if _, err := RandomWeights(model.Config{}, 1, 0.1); err == nil {
		t.Errorf("invalid config accepted")
	}
	if _, err := RandomWeights(tinyOPT(), 1, 0); err == nil {
		t.Errorf("zero scale accepted")
	}
}

func TestStoreMissingTensor(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Tensor(0, "nope"); err == nil {
		t.Errorf("missing tensor accepted")
	}
	cfg := tinyOPT()
	raw, _ := RandomWeights(cfg, 1, 0.1)
	if _, err := memCheckpoint(t, cfg, raw).Tensor(99, "nope"); err == nil {
		t.Errorf("missing quant tensor accepted")
	}
}

// rope rotates row's heads of width headDim to position pos.
func rope(row []float32, headDim, pos int) {
	sc := make([]float64, headDim)
	ropeAngles(sc, pos)
	applyRoPE(row, sc)
}

// RoPE preserves vector norms (it is a rotation).
func TestRoPEIsRotation(t *testing.T) {
	row := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	var before float64
	for _, v := range row {
		before += float64(v) * float64(v)
	}
	rope(row, 4, 13)
	var after float64
	for _, v := range row {
		after += float64(v) * float64(v)
	}
	if math.Abs(before-after) > 1e-3 {
		t.Errorf("RoPE changed the norm: %v -> %v", before, after)
	}
	// Position 0 is the identity rotation.
	id := []float32{1, 2, 3, 4}
	rope(id, 4, 0)
	want := []float32{1, 2, 3, 4}
	for i := range id {
		if math.Abs(float64(id[i]-want[i])) > 1e-6 {
			t.Errorf("RoPE at pos 0 not identity: %v", id)
		}
	}
}

// ropePerHead is the rotation as it was first written — angles recomputed
// for every pair of every head — kept as the reference for the angles
// computed once per position.
func ropePerHead(row []float32, headDim, pos int) {
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

// One angle fill per position, applied to every q and KV head, stores
// the per-head loop's bits: MHA and GQA shapes, every position below the
// daemons' MaxSeq.
func TestRoPEMatchesPerHeadLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ hidden, heads, kvHeads int }{
		{64, 4, 4},   // MHA
		{64, 4, 2},   // GQA
		{384, 6, 3},  // bench-ooc as LLaMA
		{256, 8, 2},  // 4 query heads per KV head
		{32, 16, 16}, // two-wide heads
	} {
		headDim := shape.hidden / shape.heads
		sc := make([]float64, headDim)
		q := make([]float32, shape.hidden)
		k := make([]float32, headDim*shape.kvHeads)
		wantQ, wantK := make([]float32, len(q)), make([]float32, len(k))
		for pos := range 2048 {
			for _, row := range [][]float32{q, k} {
				for i := range row {
					row[i] = float32(rng.NormFloat64())
				}
			}
			copy(wantQ, q)
			copy(wantK, k)
			ropePerHead(wantQ, headDim, pos)
			ropePerHead(wantK, headDim, pos)
			ropeAngles(sc, pos)
			applyRoPE(q, sc)
			applyRoPE(k, sc)
			for _, c := range []struct {
				name      string
				got, want []float32
			}{{"q", q, wantQ}, {"k", k, wantK}} {
				for i := range c.got {
					if math.Float32bits(c.got[i]) != math.Float32bits(c.want[i]) {
						t.Fatalf("%d/%d/%d pos %d: %s[%d] = %g, per-head loop %g", shape.hidden, shape.heads, shape.kvHeads,
							pos, c.name, i, c.got[i], c.want[i])
					}
				}
			}
		}
	}
}

// A blockCache keeps every row it is handed in sixteen-position K blocks
// and V rows: zero-valued (it sizes its slabs on the first append) or
// presized and appended past its size (it doubles them), every element
// reads back through KBlock and VRow, a truncated cache appends over its
// tail, and a row of another width is refused.
func TestBlockCacheLayout(t *testing.T) {
	const width = 5
	val := func(p, d int) float32 { return float32(100*p + d) }
	for _, maxRows := range []int{0, 3, 16} {
		c := &blockCache{maxRows: maxRows}
		appendRows := func(from, to int) {
			for p := from; p < to; p++ {
				k, v := make([]float32, width), make([]float32, width)
				for d := range k {
					k[d], v[d] = val(p, d), -val(p, d)
				}
				if err := c.AppendRow(k, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		appendRows(0, 40)
		c.Truncate(33)
		appendRows(33, 45)
		if c.Len() != 45 {
			t.Fatalf("maxRows %d: %d positions cached, want 45", maxRows, c.Len())
		}
		for p := 0; p < c.Len(); p++ {
			k, n, stride := c.KBlock(p)
			if stride != tensor.KBlockPositions || n != stride-p%stride {
				t.Fatalf("maxRows %d, pos %d: block of %d positions, stride %d", maxRows, p, n, stride)
			}
			for d := 0; d < width; d++ {
				if k[d*stride] != val(p, d) || c.VRow(p)[d] != -val(p, d) {
					t.Fatalf("maxRows %d, pos %d, dim %d: K %v V %v", maxRows, p, d, k[d*stride], c.VRow(p)[d])
				}
			}
		}
		if err := c.AppendRow(make([]float32, width+1), make([]float32, width+1)); err == nil {
			t.Errorf("maxRows %d: a row of another width was appended", maxRows)
		}
	}
}
