package experiments

import (
	"fmt"

	"helmsim/internal/calib"
	"helmsim/internal/core"
	"helmsim/internal/memdev"
	"helmsim/internal/model"
	"helmsim/internal/report"
	"helmsim/internal/runcache"
	"helmsim/internal/units"
)

func init() {
	register(Experiment{
		ID:    "mlc",
		Title: "§IV-A cross-check: CPU-side bandwidth/latency matrix (Intel MLC equivalent)",
		Run:   runMLC,
	})
	register(Experiment{
		ID:    "seqlen",
		Title: "Extension: sequence-length scaling of TTFT/TBT (context pressure on the KV budget)",
		Run:   runSeqLen,
	})
}

// runMLC models the CPU-side memory characterization the paper cross-
// checks with Intel Memory Latency Checker (§IV-A): per-socket bandwidth
// and idle latency for every (initiator node, target memory) pair,
// including the observation that remote Memory Mode cannot reach remote
// DRAM bandwidth. It prints the local/remote matrix for DRAM, Optane and
// Memory Mode.
func runMLC() ([]*report.Table, error) {
	m, err := mlcMatrix()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "CPU-side memory matrix (per-socket)",
		Headers: []string{"from", "to", "memory", "read", "write", "latency"},
	}
	for _, a := range m {
		t.AddRow(fmt.Sprintf("node %d", a.FromNode), fmt.Sprintf("node %d", a.TargetNode),
			a.Target.String(), a.ReadBW.String(), a.WriteBW.String(), a.Latency.String())
	}
	return []*report.Table{t}, nil
}

// mlcAccess is one (initiator, target) measurement.
type mlcAccess struct {
	// FromNode is the initiating socket.
	FromNode int
	// Target is the memory pool kind.
	Target memdev.Kind
	// TargetNode is the pool's socket.
	TargetNode int
	// ReadBW and WriteBW are the sustained CPU bandwidths.
	ReadBW, WriteBW units.Bandwidth
	// Latency is the idle load-to-use latency.
	Latency units.Duration
}

// isLocal reports whether the access stays on-socket.
func (a mlcAccess) isLocal() bool { return a.FromNode == a.TargetNode }

// mlcMeasure returns the simulated MLC measurement for one pair.
func mlcMeasure(fromNode, targetNode int, target memdev.Kind) (mlcAccess, error) {
	if fromNode < 0 || fromNode >= calib.NUMANodes || targetNode < 0 || targetNode >= calib.NUMANodes {
		return mlcAccess{}, fmt.Errorf("mlc: node out of range (%d -> %d)", fromNode, targetNode)
	}
	a := mlcAccess{FromNode: fromNode, Target: target, TargetNode: targetNode}
	local := a.isLocal()
	remote := func(bw units.Bandwidth, factor float64) units.Bandwidth {
		if local {
			return bw
		}
		return units.Bandwidth(float64(bw) * factor)
	}
	switch target {
	case memdev.KindDRAM:
		a.ReadBW = remote(calib.MLCDRAMReadLocal, calib.MLCRemoteFactor)
		a.WriteBW = remote(calib.MLCDRAMWriteLocal, calib.MLCRemoteFactor)
		a.Latency = pick(local, calib.MLCDRAMLatencyLocal, calib.MLCDRAMLatencyRemote)
	case memdev.KindOptane:
		a.ReadBW = remote(calib.MLCOptaneReadLocal, calib.MLCRemoteFactor)
		a.WriteBW = remote(calib.MLCOptaneWriteLocal, calib.MLCOptaneRemoteWriteFactor)
		a.Latency = pick(local, calib.MLCOptaneLatencyLocal, calib.MLCOptaneLatencyRemote)
	case memdev.KindMemoryMode:
		// Cache hits serve at DRAM speed locally; remotely the MM path
		// stays below remote DRAM (§IV-A).
		a.ReadBW = remote(calib.MLCDRAMReadLocal, calib.MLCRemoteFactor*calib.MLCMemoryModeRemoteFactor)
		a.WriteBW = remote(calib.MLCDRAMWriteLocal, calib.MLCRemoteFactor*calib.MLCMemoryModeRemoteFactor)
		a.Latency = pick(local, calib.MLCDRAMLatencyLocal, calib.MLCDRAMLatencyRemote)
	default:
		return mlcAccess{}, fmt.Errorf("mlc: unsupported target kind %v", target)
	}
	return a, nil
}

// pick selects the local or remote value.
func pick(local bool, l, r units.Duration) units.Duration {
	if local {
		return l
	}
	return r
}

// mlcMatrix measures every (initiator, target node, kind) combination,
// initiator-major.
func mlcMatrix() ([]mlcAccess, error) {
	var out []mlcAccess
	for from := 0; from < calib.NUMANodes; from++ {
		for target := 0; target < calib.NUMANodes; target++ {
			for _, kind := range []memdev.Kind{memdev.KindDRAM, memdev.KindOptane, memdev.KindMemoryMode} {
				a, err := mlcMeasure(from, target, kind)
				if err != nil {
					return nil, err
				}
				out = append(out, a)
			}
		}
	}
	return out, nil
}

// runSeqLen sweeps the prompt length for OPT-175B(c) on NVDRAM with HeLM,
// showing TTFT's growth with prefill work and the max-batch squeeze as the
// KV cache claims more GPU memory per prompt.
func runSeqLen() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Prompt-length sweep, OPT-175B(c) NVDRAM HeLM batch 1 (gen 21)",
		Headers: []string{"prompt tokens", "TTFT(s)", "TBT(s)", "max batch"},
	}
	for _, p := range []int{32, 128, 512, 1024, 2027} {
		rc := core.RunConfig{
			Model: model.OPT175B(), Memory: core.MemNVDRAM,
			Policy: helmPolicy(), Batch: 1, Compress: true,
			PromptLen: p, GenLen: 21,
		}
		res, err := runcache.Run(rc)
		if err != nil {
			// At full context even batch 1 no longer fits beside HeLM's
			// 30 GiB of GPU-resident weights — the latency placement
			// trades context capacity for speed.
			t.AddRow(p, "over GPU budget", "-", 0)
			continue
		}
		t.AddRow(p,
			fmt.Sprintf("%.3f", res.TTFT.Seconds()),
			fmt.Sprintf("%.3f", res.TBT.Seconds()),
			res.MaxBatch)
	}
	return []*report.Table{t}, nil
}
