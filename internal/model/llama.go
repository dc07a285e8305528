package model

import "fmt"

// Arch selects the decoder-block flavour. The paper evaluates OPT
// (§III-B); its conclusion notes the techniques "may be generalized to
// other models and frameworks by adapting to their compute schedule and
// data movement costs" — ArchLlama provides that generalization target:
// no biases, RMSNorm, a gated (three-matrix) FFN, and grouped-query
// attention that shrinks the KV cache.
type Arch int

// Architectures.
const (
	// ArchOPT is the decoder used by the OPT family: biased projections,
	// LayerNorm, a 4x two-matrix FFN, full multi-head attention.
	ArchOPT Arch = iota
	// ArchLlama is the LLaMA-2 style decoder: unbiased projections,
	// RMSNorm, a gated FFN (gate/up/down), grouped-query attention.
	ArchLlama
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case ArchOPT:
		return "opt"
	case ArchLlama:
		return "llama"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// llamaExt carries the LLaMA-specific shape parameters; zero values mean
// "not a LLaMA config".
type llamaExt struct {
	// KVHeads is the grouped-query KV head count (== Heads for MHA).
	KVHeads int
	// FFNDim is the intermediate dimension of the gated FFN.
	FFNDim int
}

// WithLlama upgrades a Config to the LLaMA architecture with the given
// grouped-query KV head count and FFN intermediate size.
func (c Config) WithLlama(kvHeads, ffnDim int) Config {
	c.Arch = ArchLlama
	c.KVHeads = kvHeads
	c.FFNDim = ffnDim
	return c
}

// Llama2_7B returns the LLaMA-2 7B configuration (32 heads, MHA, gated
// FFN of 11008).
func Llama2_7B() Config {
	c := Config{
		Name: "Llama2-7B", Hidden: 4096, Heads: 32, Blocks: 32,
		Vocab: 32000, MaxSeq: 4096, DTypeBytes: 2,
	}
	return c.WithLlama(32, 11008)
}

// Llama2_70B returns the LLaMA-2 70B configuration (64 heads with 8 KV
// heads — grouped-query attention — and a 28672-wide gated FFN).
func Llama2_70B() Config {
	c := Config{
		Name: "Llama2-70B", Hidden: 8192, Heads: 64, Blocks: 80,
		Vocab: 32000, MaxSeq: 4096, DTypeBytes: 2,
	}
	return c.WithLlama(8, 28672)
}

// Mini returns the laptop-scale model the executable engine's commands
// build from their flags: arch "opt", or "llama" with grouped-query
// attention (half the heads as KV heads when the count is even) and a
// gated FFN of 8/3 the hidden width. The result is validated.
func Mini(arch string, hidden, heads, blocks, vocab int) (Config, error) {
	c := Config{
		Name: "mini-" + arch, Hidden: hidden, Heads: heads, Blocks: blocks,
		Vocab: vocab, MaxSeq: 2048, DTypeBytes: 2,
	}
	switch arch {
	case "opt":
	case "llama":
		kvHeads := heads
		if heads%2 == 0 {
			kvHeads = heads / 2
		}
		c = c.WithLlama(kvHeads, hidden*8/3)
	default:
		return Config{}, fmt.Errorf("unknown arch %q", arch)
	}
	return c, c.Validate()
}

// KVWidth is the K/V projection width — the row width of one cached
// K or V position. Grouped-query attention shrinks it below Hidden;
// the paged KV pool sizes its page rows with it.
func (c Config) KVWidth() int { return c.kvDim() }

// kvDim is the K/V projection width: Hidden scaled down by the
// grouped-query ratio.
func (c Config) kvDim() int {
	if c.Arch == ArchLlama && c.KVHeads > 0 && c.KVHeads < c.Heads {
		return c.Hidden / c.Heads * c.KVHeads
	}
	return c.Hidden
}

// ffnDim is the FFN intermediate width.
func (c Config) ffnDim() int {
	if c.Arch == ArchLlama && c.FFNDim > 0 {
		return c.FFNDim
	}
	return 4 * c.Hidden
}

// llamaMHAWeights lists a LLaMA attention layer's tensors: unbiased q/k/v
// (k and v at the grouped-query width), output projection, RMSNorm weight.
func (c Config) llamaMHAWeights() []WeightSpec {
	h := int64(c.Hidden)
	kv := int64(c.kvDim())
	return []WeightSpec{
		c.spec("w_q", h*h),
		c.spec("w_k", h*kv),
		c.spec("w_v", h*kv),
		c.spec("w_out", h*h),
		c.spec("w_norm", h),
	}
}

// llamaFFNWeights lists the gated FFN: gate and up projections into the
// intermediate width, down projection back, RMSNorm weight.
func (c Config) llamaFFNWeights() []WeightSpec {
	h := int64(c.Hidden)
	f := int64(c.ffnDim())
	return []WeightSpec{
		c.spec("w_gate", h*f),
		c.spec("w_up", h*f),
		c.spec("w_down", f*h),
		c.spec("w_norm", h),
	}
}
