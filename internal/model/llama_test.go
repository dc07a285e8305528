package model

import (
	"math"
	"testing"
)

func TestLlamaConfigsValid(t *testing.T) {
	for _, c := range []Config{Llama2_7B(), Llama2_70B()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.Arch != ArchLlama {
			t.Errorf("%s arch = %v", c.Name, c.Arch)
		}
	}
	if _, err := ByName("Llama2-70B"); err != nil {
		t.Errorf("ByName(Llama2-70B): %v", err)
	}
}

func TestLlamaParamCounts(t *testing.T) {
	cases := []struct {
		cfg  Config
		want float64 // billions
	}{
		{Llama2_7B(), 6.7},
		{Llama2_70B(), 69},
	}
	for _, c := range cases {
		got := float64(c.cfg.ParamCount()) / 1e9
		if math.Abs(got-c.want)/c.want > 0.08 {
			t.Errorf("%s params = %.2fB, want ~%.1fB", c.cfg.Name, got, c.want)
		}
	}
}

// Grouped-query attention: 70B uses 8 KV heads over 64 query heads, so its
// per-token KV cache is 8x smaller than full MHA would be.
func TestGQAShrinksKVCache(t *testing.T) {
	c := Llama2_70B()
	got := c.KVBytesPerPromptPerBlock(1)
	fullMHA := 2 * 1 * c.Hidden * c.DTypeBytes
	if int(got) != fullMHA/8 {
		t.Errorf("GQA KV per token = %d, want %d (1/8 of MHA)", got, fullMHA/8)
	}
	// 7B is full MHA: no reduction.
	c7 := Llama2_7B()
	if int(c7.KVBytesPerPromptPerBlock(1)) != 2*c7.Hidden*c7.DTypeBytes {
		t.Errorf("7B KV wrong")
	}
}

func TestLlamaWeightSpecs(t *testing.T) {
	c := Llama2_70B()
	layers := c.Layers()
	mha := layers[1]
	// No biases anywhere; k/v at grouped width.
	names := map[string]int64{}
	for _, w := range mha.Weights {
		names[w.Name] = w.Elems
	}
	h := int64(c.Hidden)
	if names["w_q"] != h*h || names["w_out"] != h*h {
		t.Errorf("q/out sizes wrong: %v", names)
	}
	if names["w_k"] != h*h/8 || names["w_v"] != h*h/8 {
		t.Errorf("grouped k/v sizes wrong: %v", names)
	}
	if _, ok := names["b_q"]; ok {
		t.Errorf("llama should not carry biases")
	}
	ffn := layers[2]
	f := int64(c.FFNDim)
	fnames := map[string]int64{}
	for _, w := range ffn.Weights {
		fnames[w.Name] = w.Elems
	}
	for _, n := range []string{"w_gate", "w_up", "w_down"} {
		if fnames[n] != h*f {
			t.Errorf("%s = %d, want %d", n, fnames[n], h*f)
		}
	}
	// Embedding layers: no position table, no output bias.
	for _, w := range layers[0].Weights {
		if w.Name == "w_pos" {
			t.Errorf("llama should not have a position table")
		}
	}
}

func TestLlamaFlops(t *testing.T) {
	c := Llama2_70B()
	h := float64(c.Hidden)
	kv := h / 8
	if got, want := c.MHAProjFlops(1), 2*(2*h*h+2*h*kv); got != want {
		t.Errorf("MHAProjFlops = %g, want %g", got, want)
	}
	if got, want := c.FFNFlops(1), 2*3*h*float64(c.FFNDim); got != want {
		t.Errorf("FFNFlops = %g, want %g", got, want)
	}
	// OPT flops are unchanged by the generalization.
	o := OPT175B()
	oh := float64(o.Hidden)
	if got := o.MHAProjFlops(1); got != 8*oh*oh {
		t.Errorf("OPT MHAProjFlops changed: %g", got)
	}
}

func TestLlamaValidation(t *testing.T) {
	bad := Llama2_70B()
	bad.KVHeads = 7 // does not divide 64
	if err := bad.Validate(); err == nil {
		t.Errorf("bad KV heads accepted")
	}
	bad = Llama2_70B()
	bad.FFNDim = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero FFN dim accepted")
	}
	// RoPE rotates dimension pairs within a head, so an odd head width
	// would pair one head's last dimension with the next head's first.
	for _, hh := range [][2]int{{6, 2}, {20, 4}} {
		odd := Config{Name: "odd", Hidden: hh[0], Heads: hh[1], Blocks: 1, Vocab: 8, MaxSeq: 8, DTypeBytes: 2}.WithLlama(hh[1], 8)
		if err := odd.Validate(); err == nil {
			t.Errorf("LLaMA hidden %d / heads %d: odd head width accepted", hh[0], hh[1])
		}
		odd.Arch = ArchOPT // OPT has no rotary embedding: the same shape is fine
		if err := odd.Validate(); err != nil {
			t.Errorf("OPT hidden %d / heads %d: %v", hh[0], hh[1], err)
		}
	}
}

func TestArchString(t *testing.T) {
	if ArchOPT.String() != "opt" || ArchLlama.String() != "llama" || Arch(7).String() != "Arch(7)" {
		t.Errorf("arch names broken")
	}
}

func TestWithLlama(t *testing.T) {
	c := optConfig("custom", 1024, 16, 8).WithLlama(4, 2816)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.kvDim() != 1024/16*4 {
		t.Errorf("kvDim = %d", c.kvDim())
	}
	if c.ffnDim() != 2816 {
		t.Errorf("ffnDim = %d", c.ffnDim())
	}
	// OPT defaults.
	o := OPT30B()
	if o.kvDim() != o.Hidden || o.ffnDim() != 4*o.Hidden {
		t.Errorf("OPT dims changed")
	}
}

// Mini is the commands' one flag-to-model constructor: the shapes they
// serve, and the flag values it rejects.
func TestMini(t *testing.T) {
	o, err := Mini("opt", 64, 4, 2, 512)
	if err != nil || o.Name != "mini-opt" || o.Arch != ArchOPT || o.MaxSeq != 2048 {
		t.Errorf("opt: %+v, %v", o, err)
	}
	for _, tc := range []struct{ heads, kvHeads int }{{4, 2}, {3, 3}} {
		l, err := Mini("llama", 48, tc.heads, 2, 512)
		if err != nil || l.Arch != ArchLlama || l.KVHeads != tc.kvHeads || l.ffnDim() != 128 {
			t.Errorf("llama with %d heads: %+v, %v", tc.heads, l, err)
		}
	}
	if _, err := Mini("bogus", 64, 4, 2, 512); err == nil {
		t.Errorf("unknown arch: %v", err)
	}
	if _, err := Mini("llama", 20, 4, 2, 512); err == nil {
		t.Error("a llama head width of 5 (odd, no rotary pairs) validated")
	}
}
