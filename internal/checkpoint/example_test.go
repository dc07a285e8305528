package checkpoint_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"helmsim/internal/checkpoint"
	"helmsim/internal/model"
	"helmsim/internal/quant"
)

// ExampleWriter writes a scaled-down OPT model's weights raw (FP16) and
// 4-bit quantized, then reads the quantized checkpoint back: the size
// reduction compression buys every transfer an out-of-core server makes
// (§IV-B), and the reconstruction error it costs.
func ExampleWriter() {
	cfg := model.Config{Name: "OPT-mini", Hidden: 256, Heads: 8, Blocks: 2, Vocab: 1024, MaxSeq: 512, DTypeBytes: 2}
	rng := rand.New(rand.NewSource(42))
	var names []string
	weights := map[string][]float32{}
	for _, l := range cfg.Layers() {
		for _, s := range l.Weights {
			name := fmt.Sprintf("%03d/%s", len(names), s.Name)
			data := make([]float32, s.Elems)
			for j := range data {
				data[j] = float32(rng.NormFloat64() * 0.02)
			}
			names = append(names, name)
			weights[name] = data
		}
	}

	write := func(quantized bool) *bytes.Buffer {
		var buf bytes.Buffer
		w, err := checkpoint.NewWriter(&buf, cfg.Name, len(names))
		if err != nil {
			panic(err)
		}
		for _, name := range names {
			if !quantized {
				if err := w.WriteRaw(name, weights[name]); err != nil {
					panic(err)
				}
				continue
			}
			qt, err := quant.Quantize(weights[name], quant.Default())
			if err != nil {
				panic(err)
			}
			if err := w.WriteQuantized(name, qt); err != nil {
				panic(err)
			}
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		return &buf
	}
	raw, packed := write(false), write(true)
	fmt.Printf("%d tensors: raw FP16 %d bytes, 4-bit %d bytes (%.2fx smaller)\n",
		len(names), raw.Len(), packed.Len(), float64(raw.Len())/float64(packed.Len()))

	ix, err := checkpoint.NewIndexed(bytes.NewReader(packed.Bytes()))
	if err != nil {
		panic(err)
	}
	var errSq, sumSq float64
	var data []float32
	for slot, name := range ix.Names() {
		if data, err = ix.ReadSlotInto(slot, data); err != nil {
			panic(err)
		}
		for i, want := range weights[name] {
			d := float64(data[i] - want)
			errSq += d * d
			sumSq += float64(want) * float64(want)
		}
	}
	fmt.Printf("relative RMS error %.3f%%\n", math.Sqrt(errSq/sumSq)*100)
	// Output:
	// 37 tensors: raw FP16 4472688 bytes, 4-bit 1259316 bytes (3.55x smaller)
	// relative RMS error 8.958%
}
