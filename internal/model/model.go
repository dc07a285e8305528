// Package model describes decoder-only transformer architectures — the OPT
// family the paper serves (§III-B) — at the granularity FlexGen schedules
// them: an input-embedding layer, alternating multi-head-attention (MHA)
// and feed-forward-network (FFN) layers (two per decoder block), and an
// output-embedding layer. OPT-30B has 48 blocks => 98 layers, OPT-175B has
// 96 blocks => 194 layers, matching §III-B.
//
// Each layer carries its weight specs in FlexGen's initialization order;
// the placement package's cumsum allocator is sensitive to that order, and
// reproducing it is what makes the paper's achieved weight distributions
// (Figs. 7b, 7c, 10) come out exactly.
package model

import (
	"fmt"

	"helmsim/internal/units"
)

// LayerType classifies a schedulable layer.
type LayerType int

// Layer types in schedule order.
const (
	LayerInputEmbed LayerType = iota
	LayerMHA
	LayerFFN
	LayerOutputEmbed
)

// String names the layer type.
func (t LayerType) String() string {
	switch t {
	case LayerInputEmbed:
		return "InputEmbed"
	case LayerMHA:
		return "MHA"
	case LayerFFN:
		return "FFN"
	case LayerOutputEmbed:
		return "OutputEmbed"
	default:
		return fmt.Sprintf("LayerType(%d)", int(t))
	}
}

// WeightSpec is one named weight tensor of a layer.
type WeightSpec struct {
	// Name identifies the tensor, e.g. "w_q" or "b_fc1".
	Name string
	// Elems is the element count.
	Elems int64
	// Bytes is the uncompressed tensor size.
	Bytes units.Bytes
}

// Layer is one schedulable unit of the model.
type Layer struct {
	// Index is the position in the schedule (0-based).
	Index int
	// Block is the decoder block this layer belongs to (-1 for
	// embeddings).
	Block int
	// Type classifies the layer.
	Type LayerType
	// Weights lists the layer's tensors in FlexGen initialization order.
	Weights []WeightSpec
}

// WeightBytes is the total uncompressed weight size of the layer.
func (l Layer) WeightBytes() units.Bytes {
	var n units.Bytes
	for _, w := range l.Weights {
		n += w.Bytes
	}
	return n
}

// Config describes one model of the OPT family.
type Config struct {
	// Name is the model name, e.g. "OPT-175B".
	Name string
	// Hidden is the hidden dimension h.
	Hidden int
	// Heads is the attention head count.
	Heads int
	// Blocks is the decoder block count.
	Blocks int
	// Vocab is the vocabulary size.
	Vocab int
	// MaxSeq is the maximum context length.
	MaxSeq int
	// DTypeBytes is the parameter width (2 for FP16).
	DTypeBytes int
	// Arch selects the decoder flavour (ArchOPT default; see llama.go).
	Arch Arch
	// llamaExt carries the LLaMA-specific shape parameters.
	llamaExt
}

// The OPT family (Zhang et al. [18]); vocabulary 50272, context 2048, FP16.
func optConfig(name string, hidden, heads, blocks int) Config {
	return Config{
		Name:       name,
		Hidden:     hidden,
		Heads:      heads,
		Blocks:     blocks,
		Vocab:      50272,
		MaxSeq:     2048,
		DTypeBytes: 2,
	}
}

// OPT1B3 returns the OPT-1.3B configuration.
func OPT1B3() Config { return optConfig("OPT-1.3B", 2048, 32, 24) }

// OPT6B7 returns the OPT-6.7B configuration.
func OPT6B7() Config { return optConfig("OPT-6.7B", 4096, 32, 32) }

// OPT13B returns the OPT-13B configuration.
func OPT13B() Config { return optConfig("OPT-13B", 5120, 40, 40) }

// OPT30B returns the OPT-30B configuration evaluated in the paper
// (48 blocks, 96 hidden layers, 98 schedulable layers, §III-B).
func OPT30B() Config { return optConfig("OPT-30B", 7168, 56, 48) }

// OPT66B returns the OPT-66B configuration.
func OPT66B() Config { return optConfig("OPT-66B", 9216, 72, 64) }

// OPT175B returns the OPT-175B configuration evaluated in the paper
// (96 blocks, 192 hidden layers, 194 schedulable layers, §III-B).
func OPT175B() Config { return optConfig("OPT-175B", 12288, 96, 96) }

// ByName looks a configuration up by its name (case-sensitive, as printed
// by the constructors).
func ByName(name string) (Config, error) {
	for _, c := range []Config{OPT1B3(), OPT6B7(), OPT13B(), OPT30B(), OPT66B(), OPT175B(), Llama2_7B(), Llama2_70B()} {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown config %q", name)
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Hidden <= 0:
		return fmt.Errorf("model %s: non-positive hidden %d", c.Name, c.Hidden)
	case c.Heads <= 0:
		return fmt.Errorf("model %s: non-positive heads %d", c.Name, c.Heads)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	case c.Blocks <= 0:
		return fmt.Errorf("model %s: non-positive blocks %d", c.Name, c.Blocks)
	case c.Vocab <= 0:
		return fmt.Errorf("model %s: non-positive vocab %d", c.Name, c.Vocab)
	case c.MaxSeq <= 0:
		return fmt.Errorf("model %s: non-positive max seq %d", c.Name, c.MaxSeq)
	case c.DTypeBytes <= 0:
		return fmt.Errorf("model %s: non-positive dtype width %d", c.Name, c.DTypeBytes)
	}
	if c.Arch == ArchLlama {
		if c.KVHeads <= 0 || c.Heads%c.KVHeads != 0 {
			return fmt.Errorf("model %s: KV heads %d must divide heads %d", c.Name, c.KVHeads, c.Heads)
		}
		if c.FFNDim <= 0 {
			return fmt.Errorf("model %s: non-positive FFN dim %d", c.Name, c.FFNDim)
		}
		if hd := c.Hidden / c.Heads; hd%2 != 0 {
			return fmt.Errorf("model %s: head width %d (hidden %d / heads %d) is odd; rotary embedding rotates pairs of dimensions", c.Name, hd, c.Hidden, c.Heads)
		}
	}
	return nil
}

// spec builds a WeightSpec from an element count.
func (c Config) spec(name string, elems int64) WeightSpec {
	return WeightSpec{Name: name, Elems: elems, Bytes: units.Bytes(elems) * units.Bytes(c.DTypeBytes)}
}

// mhaWeights lists an MHA layer's tensors in the framework's
// initialization order; for OPT that is the q/k/v/out projections with
// their biases interleaved, then layer norm.
func (c Config) mhaWeights() []WeightSpec {
	if c.Arch == ArchLlama {
		return c.llamaMHAWeights()
	}
	h := int64(c.Hidden)
	return []WeightSpec{
		c.spec("w_q", h*h), c.spec("b_q", h),
		c.spec("w_k", h*h), c.spec("b_k", h),
		c.spec("w_v", h*h), c.spec("b_v", h),
		c.spec("w_out", h*h), c.spec("b_out", h),
		c.spec("w_ln", h), c.spec("b_ln", h),
	}
}

// ffnWeights lists an FFN layer's tensors in the framework's
// initialization order; for OPT that is the two fully connected layers
// with biases, then layer norm.
func (c Config) ffnWeights() []WeightSpec {
	if c.Arch == ArchLlama {
		return c.llamaFFNWeights()
	}
	h := int64(c.Hidden)
	return []WeightSpec{
		c.spec("w_fc1", 4*h*h), c.spec("b_fc1", 4*h),
		c.spec("w_fc2", 4*h*h), c.spec("b_fc2", h),
		c.spec("w_ln", h), c.spec("b_ln", h),
	}
}

// Layers enumerates the schedulable layers: input embedding, Blocks x
// (MHA, FFN), output embedding — 2*Blocks + 2 layers total (§III-B).
func (c Config) Layers() []Layer {
	h := int64(c.Hidden)
	layers := make([]Layer, 0, 2*c.Blocks+2)
	embed := []WeightSpec{c.spec("w_token", int64(c.Vocab)*h)}
	if c.Arch == ArchOPT {
		// OPT learns positions with a 2-token offset, hence +2; LLaMA
		// uses rotary embeddings and stores no position table.
		embed = append(embed, c.spec("w_pos", int64(c.MaxSeq+2)*h))
	}
	layers = append(layers, Layer{
		Index: 0, Block: -1, Type: LayerInputEmbed,
		Weights: embed,
	})
	for b := 0; b < c.Blocks; b++ {
		layers = append(layers, Layer{
			Index: 1 + 2*b, Block: b, Type: LayerMHA, Weights: c.mhaWeights(),
		})
		layers = append(layers, Layer{
			Index: 2 + 2*b, Block: b, Type: LayerFFN, Weights: c.ffnWeights(),
		})
	}
	out := []WeightSpec{c.spec("w_ln", h)}
	if c.Arch == ArchOPT {
		out = append(out, c.spec("b_ln", h))
	}
	out = append(out, c.spec("w_token", int64(c.Vocab)*h))
	layers = append(layers, Layer{
		Index: 2*c.Blocks + 1, Block: -1, Type: LayerOutputEmbed,
		Weights: out,
	})
	return layers
}

// NumLayers is the schedulable layer count (2*Blocks + 2).
func (c Config) NumLayers() int { return 2*c.Blocks + 2 }

// TotalWeightBytes is the uncompressed model footprint.
func (c Config) TotalWeightBytes() units.Bytes {
	var n units.Bytes
	for _, l := range c.Layers() {
		n += l.WeightBytes()
	}
	return n
}

// BlockWeightBytes is the uncompressed size of one decoder block (one MHA +
// one FFN layer). For OPT-175B this is the paper's 3.38 GiB (§V).
func (c Config) BlockWeightBytes() units.Bytes {
	var n units.Bytes
	for _, w := range c.mhaWeights() {
		n += w.Bytes
	}
	for _, w := range c.ffnWeights() {
		n += w.Bytes
	}
	return n
}

// KVBytesPerPromptPerBlock is the physical K+V cache footprint one prompt
// needs in one decoder block at the given context length: two tensors of
// ctx x hidden x dtype. Note the paper's §V prose quotes exactly half of
// this (47.98 MiB per OPT-175B block at ctx=2048 where the physical size
// is 96 MiB) — but the physical size is what makes the paper's own batch
// caps (8 baseline, 44 All-CPU at a 149-token context) come out of the GPU
// capacity arithmetic, so the simulator uses it and EXPERIMENTS.md records
// the discrepancy.
// Grouped-query attention (ArchLlama with KVHeads < Heads) shrinks the
// cache by the head-group ratio.
func (c Config) KVBytesPerPromptPerBlock(ctx int) units.Bytes {
	if ctx < 0 {
		ctx = 0
	}
	return 2 * units.Bytes(ctx) * units.Bytes(c.kvDim()) * units.Bytes(c.DTypeBytes)
}

// KVBytesPerPrompt is the whole-model K+V footprint of one prompt.
func (c Config) KVBytesPerPrompt(ctx int) units.Bytes {
	return c.KVBytesPerPromptPerBlock(ctx) * units.Bytes(c.Blocks)
}

// HiddenStateBytes is the size of the hidden-state activation for the given
// number of tokens.
func (c Config) HiddenStateBytes(tokens int) units.Bytes {
	if tokens < 0 {
		tokens = 0
	}
	return units.Bytes(tokens) * units.Bytes(c.Hidden) * units.Bytes(c.DTypeBytes)
}

// ---------------------------------------------------------------------------
// FLOP counts. tokens is the number of query tokens processed in the step
// across the whole batch (batch*promptLen for prefill, batch for decode).
// ---------------------------------------------------------------------------

// MHAProjFlops counts the q/k/v/out projection flops for the given token
// count: four h x h matmuls at 2 flops per MAC (k/v shrink to the
// grouped-query width under ArchLlama).
func (c Config) MHAProjFlops(tokens int) float64 {
	h := float64(c.Hidden)
	kv := float64(c.kvDim())
	return 2 * float64(tokens) * (2*h*h + 2*h*kv)
}

// AttnFlopsPerPrompt counts one prompt's attention-score and weighted-sum
// flops: qTokens query tokens attending over ctx cached positions.
func (c Config) AttnFlopsPerPrompt(qTokens, ctx int) float64 {
	h := float64(c.Hidden)
	return 4 * float64(qTokens) * float64(ctx) * h
}

// FFNFlops counts the feed-forward matmuls: h->4h->h for OPT, the gated
// three-matmul h->f, h->f, f->h for LLaMA.
func (c Config) FFNFlops(tokens int) float64 {
	h := float64(c.Hidden)
	if c.Arch == ArchLlama {
		f := float64(c.ffnDim())
		return 2 * float64(tokens) * 3 * h * f
	}
	return 2 * float64(tokens) * 8 * h * h
}

// OutputFlops counts the final logit projection for the given token count
// (only the last position per prompt needs logits during generation).
func (c Config) OutputFlops(tokens int) float64 {
	return 2 * float64(tokens) * float64(c.Hidden) * float64(c.Vocab)
}

// ParamCount is the total parameter count.
func (c Config) ParamCount() int64 {
	var n int64
	for _, l := range c.Layers() {
		for _, w := range l.Weights {
			n += w.Elems
		}
	}
	return n
}
