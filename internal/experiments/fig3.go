package experiments

import (
	"fmt"

	"helmsim/internal/calib"
	"helmsim/internal/memdev"
	"helmsim/internal/report"
	"helmsim/internal/units"
	"helmsim/internal/xfer"
)

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Fig. 3: host/GPU memory copy bandwidth vs buffer size (256 MB - 32 GB), both NUMA nodes",
		Run:   runFig3,
	})
}

// runFig3 reproduces the paper's nvbandwidth characterization (§IV-A,
// Fig. 3): one-shot host->GPU and GPU->host copy bandwidth for buffer
// sizes between 256 MB and 32 GB, for every memory device on both NUMA
// nodes. It prints one table per direction, one column per device/node,
// one row per buffer size.
func runFig3() ([]*report.Table, error) {
	series, err := sweepFig3()
	if err != nil {
		return nil, err
	}
	sizes := sweepSizes()

	tables := make([]*report.Table, 0, 2)
	for _, dir := range []direction{hostToGPU, gpuToHost} {
		var sel []bwSeries
		for _, s := range series {
			if s.Dir == dir {
				sel = append(sel, s)
			}
		}
		t := &report.Table{
			Title:   fmt.Sprintf("Fig. 3 %s bandwidth (GB/s)", dir),
			Headers: []string{"buffer"},
		}
		for _, s := range sel {
			t.Headers = append(t.Headers, s.Device)
		}
		for i, size := range sizes {
			row := []any{size.String()}
			for _, s := range sel {
				row = append(row, fmt.Sprintf("%.2f", s.Points[i].BW.GBpsf()))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// direction is the copy direction.
type direction int

// Copy directions.
const (
	hostToGPU direction = iota
	gpuToHost
)

// String names the direction as the paper's figure captions do.
func (d direction) String() string {
	if d == hostToGPU {
		return "host-to-gpu"
	}
	return "gpu-to-host"
}

// bwPoint is one measurement.
type bwPoint struct {
	// Size is the buffer size.
	Size units.Bytes
	// BW is the measured copy bandwidth.
	BW units.Bandwidth
}

// bwSeries is one device's sweep in one direction.
type bwSeries struct {
	// Device is the device label, e.g. "NVDRAM-0".
	Device string
	// Dir is the copy direction.
	Dir direction
	// Points holds one measurement per swept size, ascending.
	Points []bwPoint
}

// sweepSizes returns the Fig. 3 buffer sizes: eight power-of-two steps
// from 256 MB up to the 32 GB end of the sweep.
func sweepSizes() []units.Bytes {
	out := make([]units.Bytes, 0, 8)
	for s, i := 256*units.MB, 0; i < 8; s, i = s*2, i+1 {
		out = append(out, s)
	}
	return out
}

// runDevice sweeps one device in one direction.
func runDevice(dev memdev.Device, dir direction, sizes []units.Bytes) (bwSeries, error) {
	eng := xfer.New()
	s := bwSeries{Device: dev.Name(), Dir: dir}
	for _, size := range sizes {
		if size <= 0 {
			return bwSeries{}, fmt.Errorf("bwbench: non-positive size %d", size)
		}
		var bw units.Bandwidth
		var err error
		if dir == hostToGPU {
			bw, err = eng.MeasureHostToGPU(dev, size)
		} else {
			bw, err = eng.MeasureGPUToHost(dev, size)
		}
		if err != nil {
			return bwSeries{}, fmt.Errorf("bwbench: %s %v at %v: %w", dev.Name(), dir, size, err)
		}
		s.Points = append(s.Points, bwPoint{Size: size, BW: bw})
	}
	return s, nil
}

// sweepFig3 sweeps every memory device of both NUMA nodes in both directions
// — the full Fig. 3 dataset. Each node of the two-socket platform (Table I)
// contributes its DRAM pool, its Optane pool (NVDRAM configuration) and its
// Memory Mode view, node-major. The GPU hangs off node 0's PCIe root complex
// (§IV-A), which is why the per-device bandwidth models in memdev derate
// remote accesses.
func sweepFig3() ([]bwSeries, error) {
	sizes := sweepSizes()
	var out []bwSeries
	for _, dir := range []direction{hostToGPU, gpuToHost} {
		for node := 0; node < calib.NUMANodes; node++ {
			for _, dev := range []memdev.Device{memdev.NewDRAM(node), memdev.NewOptane(node), memdev.NewMemoryMode(node)} {
				s, err := runDevice(dev, dir, sizes)
				if err != nil {
					return nil, err
				}
				out = append(out, s)
			}
		}
	}
	return out, nil
}
