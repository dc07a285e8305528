package experiments

import (
	"fmt"

	"helmsim/internal/kvcache"
	"helmsim/internal/model"
	"helmsim/internal/report"
	"helmsim/internal/units"
	"helmsim/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "paged",
		Title: "Extension (related work [63]): paged vs contiguous KV allocation headroom",
		Run:   runPaged,
	})
}

// runPaged compares FlexGen's contiguous prompt+generation KV reservation
// against vLLM-style paged allocation at several page sizes: admitted
// batch within the All-CPU GPU budget and the internal fragmentation the
// paging trades for it.
func runPaged() ([]*report.Table, error) {
	cfg := model.OPT175B()
	budget := 33 * units.GB // the All-CPU free GPU memory, roughly

	t := &report.Table{
		Title:   "KV allocation strategies, OPT-175B, C4-like prompt mix (median 128), 33 GB budget",
		Headers: []string{"strategy", "page tokens", "admitted prompts", "fragmentation at admit (%)"},
	}
	reserve := int(budget / kvcache.PerPromptBytes(cfg, 128, 21))
	t.AddRow("contiguous (prompt+gen reserve)", "-", reserve, "0.0")

	// A natural length mix (C4-like, median 128) exercises the page-tail
	// waste that fixed 128-token prompts would hide.
	gen, err := workload.NewGenerator(4, cfg.Vocab)
	if err != nil {
		return nil, err
	}
	prompts, err := gen.NaturalPrompts(512, 128, 1024)
	if err != nil {
		return nil, err
	}
	// Block-granular allocation: a prompt holds ⌈len/page⌉ pages, and
	// prompts are admitted in order until the next one's pages no longer
	// fit the budget. Fragmentation is the share of the admitted prompts'
	// page slots that back no token.
	for _, page := range []int{8, 16, 32, 64, 128} {
		pageBytes := cfg.KVBytesPerPromptPerBlock(page) * units.Bytes(cfg.Blocks)
		free := int(budget / pageBytes)
		admitted, slots, used := 0, 0, 0
		for _, pr := range prompts {
			need := (pr.Len() + page - 1) / page
			if need > free {
				break // budget exhausted
			}
			free -= need
			admitted++
			slots += need * page
			used += pr.Len()
		}
		frag := 0.0
		if slots > 0 {
			frag = float64(slots-used) / float64(slots)
		}
		t.AddRow("paged (vLLM-style)", page, admitted, fmt.Sprintf("%.1f", frag*100))
	}
	return []*report.Table{t}, nil
}
