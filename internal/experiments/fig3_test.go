package experiments

import (
	"math"
	"testing"

	"helmsim/internal/calib"
	"helmsim/internal/memdev"
	"helmsim/internal/units"
)

func TestSweepSizes(t *testing.T) {
	sizes := sweepSizes()
	if len(sizes) != 8 {
		t.Fatalf("got %d sizes, want 8 (256 MB .. 32 GB doubling)", len(sizes))
	}
	if sizes[0] != 256*units.MB || sizes[len(sizes)-1] < 32*units.GB {
		t.Errorf("range = [%v, %v]", sizes[0], sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != 2*sizes[i-1] {
			t.Errorf("sizes not doubling at %d", i)
		}
	}
}

func TestRunDevice(t *testing.T) {
	s, err := runDevice(memdev.NewOptane(0), hostToGPU, sweepSizes())
	if err != nil {
		t.Fatal(err)
	}
	if s.Device != "NVDRAM-0" || s.Dir != hostToGPU {
		t.Errorf("series identity: %s %v", s.Device, s.Dir)
	}
	if len(s.Points) != 8 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Fig. 3a anchors.
	if got := s.Points[0].BW.GBpsf(); math.Abs(got-19.91) > 0.2 {
		t.Errorf("256MB = %.2f, want ~19.91", got)
	}
	if got := s.Points[7].BW.GBpsf(); math.Abs(got-15.52) > 0.2 {
		t.Errorf("32GB = %.2f, want ~15.52", got)
	}
	if _, err := runDevice(memdev.NewOptane(0), hostToGPU, []units.Bytes{0}); err == nil {
		t.Errorf("zero size accepted")
	}
}

// Fig. 3a caption: "DRAM-0, DRAM-1, MM-0, and MM-1 overlap perfectly" for
// host->GPU; Fig. 3b: "DRAM-0, DRAM-1, and MM-1 overlap perfectly" but not
// MM-0 for GPU->host.
func TestFig3CaptionOverlaps(t *testing.T) {
	series, err := sweepFig3()
	if err != nil {
		t.Fatal(err)
	}
	get := func(dev string, dir direction) bwSeries {
		for _, s := range series {
			if s.Device == dev && s.Dir == dir {
				return s
			}
		}
		t.Fatalf("missing series %s %v", dev, dir)
		return bwSeries{}
	}
	close := func(a, b bwSeries, tol float64) bool {
		for i := range a.Points {
			if math.Abs(a.Points[i].BW.GBpsf()-b.Points[i].BW.GBpsf()) > tol {
				return false
			}
		}
		return true
	}
	// Host->GPU: DRAM-0 == MM-0 and DRAM-1 == MM-1.
	if !close(get("DRAM-0", hostToGPU), get("MM-0", hostToGPU), 0.01) {
		t.Errorf("MM-0 should overlap DRAM-0 host->GPU (Fig. 3a)")
	}
	if !close(get("DRAM-1", hostToGPU), get("MM-1", hostToGPU), 0.01) {
		t.Errorf("MM-1 should overlap DRAM-1 host->GPU (Fig. 3a)")
	}
	// NVDRAM sits below DRAM at every size.
	dram := get("DRAM-0", hostToGPU)
	nv := get("NVDRAM-0", hostToGPU)
	for i := range dram.Points {
		if nv.Points[i].BW >= dram.Points[i].BW {
			t.Errorf("NVDRAM should trail DRAM at %v", dram.Points[i].Size)
		}
	}
	// GPU->host: MM-1 == DRAM-1 but MM-0 < DRAM-0.
	if !close(get("DRAM-1", gpuToHost), get("MM-1", gpuToHost), 0.01) {
		t.Errorf("MM-1 should overlap DRAM-1 gpu->host (Fig. 3b)")
	}
	mm0 := get("MM-0", gpuToHost)
	d0 := get("DRAM-0", gpuToHost)
	for i := range mm0.Points {
		if mm0.Points[i].BW >= d0.Points[i].BW {
			t.Errorf("MM-0 should trail DRAM-0 gpu->host at %v (Fig. 3b)", mm0.Points[i].Size)
		}
	}
	// GPU->host Optane: node 1 above node 0 (§IV-A).
	nv0 := get("NVDRAM-0", gpuToHost)
	nv1 := get("NVDRAM-1", gpuToHost)
	for i := range nv0.Points {
		if nv1.Points[i].BW <= nv0.Points[i].BW {
			t.Errorf("NVDRAM-1 writes should beat NVDRAM-0 at %v", nv0.Points[i].Size)
		}
	}
	// Optane writes are ~an order of magnitude below reads.
	readPeak := nv.Points[0].BW.GBpsf()
	writePeak := 0.0
	for _, p := range nv1.Points {
		if bw := p.BW.GBpsf(); bw > writePeak {
			writePeak = bw
		}
	}
	if writePeak > readPeak/4 {
		t.Errorf("Optane write peak %.2f too close to read %.2f", writePeak, readPeak)
	}
}

func TestDirectionString(t *testing.T) {
	if hostToGPU.String() != "host-to-gpu" || gpuToHost.String() != "gpu-to-host" {
		t.Errorf("direction names broken")
	}
}

func TestRunFig3SeriesCount(t *testing.T) {
	series, err := sweepFig3()
	if err != nil {
		t.Fatal(err)
	}
	// 6 devices x 2 directions.
	if len(series) != 12 {
		t.Errorf("series = %d, want 12", len(series))
	}
}

// The sweep covers the two-socket platform of Table I node-major: DRAM,
// NVDRAM and Memory Mode of node 0, then of node 1, in each direction.
func TestSystemTopology(t *testing.T) {
	if calib.NUMANodes != 2 {
		t.Errorf("NUMANodes = %d, want 2", calib.NUMANodes)
	}
	if calib.CoresPerSocket != 28 {
		t.Errorf("CoresPerSocket = %d, want 28 (Table I)", calib.CoresPerSocket)
	}
	series, err := sweepFig3()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DRAM-0", "NVDRAM-0", "MM-0", "DRAM-1", "NVDRAM-1", "MM-1"}
	for i, s := range series[:len(want)] {
		if s.Device != want[i] {
			t.Errorf("series %d = %s, want %s", i, s.Device, want[i])
		}
	}
}

func TestAllMemoryDevices(t *testing.T) {
	series, err := sweepFig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []direction{hostToGPU, gpuToHost} {
		names := map[string]bool{}
		for _, s := range series {
			if s.Dir != dir {
				continue
			}
			if names[s.Device] {
				t.Errorf("duplicate device %s %v", s.Device, dir)
			}
			names[s.Device] = true
		}
		if len(names) != 6 {
			t.Errorf("%v: got %d devices, want 6 (3 kinds x 2 nodes)", dir, len(names))
		}
	}
}
