package serve

import (
	"fmt"
	"math"
	"testing"

	"helmsim/internal/core"
	"helmsim/internal/model"
	"helmsim/internal/runcache"
	"helmsim/internal/stats"
)

func cfg30() core.RunConfig {
	return core.RunConfig{Model: model.OPT30B(), Memory: core.MemNVDRAM, Batch: 4}
}

func TestPaperProtocol(t *testing.T) {
	m, err := PaperProtocol(cfg30())
	if err != nil {
		t.Fatal(err)
	}
	if m.TTFT <= 0 || m.TBT <= 0 || m.Throughput <= 0 {
		t.Errorf("bad metrics: %+v", m)
	}
}

func TestPaperProtocolValidation(t *testing.T) {
	for _, batch := range []int{0, -1} {
		bad := cfg30()
		bad.Batch = batch
		if _, err := PaperProtocol(bad); err == nil {
			t.Errorf("batch size %d accepted", batch)
		}
	}
}

// Throughput counts every generated token of the batch (21 per prompt)
// over the batch's total time.
func TestServeBatches(t *testing.T) {
	m, err := PaperProtocol(cfg30())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runcache.Run(cfg30())
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(4*21) / res.TotalTime.Seconds(); math.Abs(m.Throughput-want) > 1e-9 {
		t.Errorf("Throughput = %v, want %v", m.Throughput, want)
	}
}

func TestServePropagatesEngineErrors(t *testing.T) {
	// Uncompressed OPT-175B on DRAM exceeds capacity.
	if _, err := PaperProtocol(core.RunConfig{Model: model.OPT175B(), Memory: core.MemDRAM, Batch: 1}); err == nil {
		t.Errorf("capacity error not propagated")
	}
}

// The protocol's runs are identical deterministic solves, so the
// discard-first means over repeated runs — and the session throughput
// over all of them — print the same Fig. 4 cells as the one solve.
func TestDiscardFirstAggregation(t *testing.T) {
	m, err := PaperProtocol(cfg30())
	if err != nil {
		t.Fatal(err)
	}
	var ttfts, tbts []float64
	var total float64
	for i := 0; i < 3; i++ {
		res, err := runcache.Run(cfg30())
		if err != nil {
			t.Fatal(err)
		}
		ttfts = append(ttfts, res.TTFT.Seconds())
		tbts = append(tbts, res.TBT.Seconds())
		total += res.TotalTime.Seconds()
	}
	cells := func(ttft, tbt, tput float64) string { return fmt.Sprintf("%.3f %.3f %.3f", ttft, tbt, tput) }
	want := cells(stats.MeanDiscardFirst(ttfts), stats.MeanDiscardFirst(tbts), float64(3*4*21)/total)
	if got := cells(m.TTFT.Seconds(), m.TBT.Seconds(), m.Throughput); got != want {
		t.Errorf("one solve prints %s, repeated runs %s", got, want)
	}
}
