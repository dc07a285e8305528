package memdev

import (
	"math"
	"testing"
	"testing/quick"

	"helmsim/internal/calib"
	"helmsim/internal/units"
)

func gbps(bw units.Bandwidth) float64 { return bw.GBpsf() }

func TestDRAMFlatAcrossSizes(t *testing.T) {
	d := NewDRAM(0)
	sizes := []units.Bytes{256 * units.MB, units.GB, 4 * units.GB, 32 * units.GB}
	want := gbps(calib.HostToGPUDRAM)
	for _, s := range sizes {
		if got := gbps(d.ReadBW(s, s)); got != want {
			t.Errorf("DRAM read at %v = %.2f, want %.2f", s, got, want)
		}
	}
}

func TestDRAMRemoteReadDerate(t *testing.T) {
	local := NewDRAM(0).ReadBW(units.GB, units.GB)
	remote := NewDRAM(1).ReadBW(units.GB, units.GB)
	if remote >= local {
		t.Errorf("remote DRAM read %v should be below local %v", remote, local)
	}
	want := float64(calib.HostToGPUDRAM) * calib.NUMARemoteReadFactor
	if math.Abs(float64(remote)-want) > 1 {
		t.Errorf("remote DRAM read = %v, want %v", float64(remote), want)
	}
}

// Fig. 3a: NVDRAM reads hold 19.91 GB/s up to 4 GB, then fall to 15.52 GB/s
// at 32 GB — a near-constant 20% loss turning into 37% at the large end.
func TestOptaneReadCurveMatchesFig3a(t *testing.T) {
	o := NewOptane(0)
	if got := gbps(o.ReadBW(256*units.MB, 256*units.MB)); math.Abs(got-19.91) > 0.01 {
		t.Errorf("Optane read 256MB = %.2f, want 19.91", got)
	}
	if got := gbps(o.ReadBW(4*units.GB, 4*units.GB)); math.Abs(got-19.91) > 0.01 {
		t.Errorf("Optane read 4GB = %.2f, want 19.91", got)
	}
	if got := gbps(o.ReadBW(32*units.GB, 32*units.GB)); math.Abs(got-15.52) > 0.01 {
		t.Errorf("Optane read 32GB = %.2f, want 15.52", got)
	}
	// Intermediate sizes are monotone non-increasing.
	prev := math.Inf(1)
	for _, s := range []units.Bytes{256 * units.MB, units.GB, 4 * units.GB, 8 * units.GB, 16 * units.GB, 32 * units.GB} {
		got := gbps(o.ReadBW(s, s))
		if got > prev+1e-9 {
			t.Errorf("Optane read curve not monotone at %v: %.2f > %.2f", s, got, prev)
		}
		prev = got
	}
}

// §IV-A: the host->GPU deficit vs DRAM is ~20% at small buffers and 37% at
// 32 GB.
func TestOptaneDeficitVsDRAM(t *testing.T) {
	o := NewOptane(0)
	d := NewDRAM(0)
	small := 1 - gbps(o.ReadBW(units.GB, units.GB))/gbps(d.ReadBW(units.GB, units.GB))
	large := 1 - gbps(o.ReadBW(32*units.GB, 32*units.GB))/gbps(d.ReadBW(32*units.GB, 32*units.GB))
	if small < 0.18 || small > 0.22 {
		t.Errorf("small-buffer deficit = %.3f, want ~0.20", small)
	}
	if large < 0.35 || large > 0.40 {
		t.Errorf("large-buffer deficit = %.3f, want ~0.37", large)
	}
}

// Sustained streaming over a big working set must behave like a large
// buffer even when each transfer is small (AIT window effect).
func TestOptaneSustainedStreamingDegrades(t *testing.T) {
	o := NewOptane(0)
	oneShot := o.ReadBW(2*units.GB, 2*units.GB)
	streaming := o.ReadBW(2*units.GB, 300*units.GB)
	if streaming >= oneShot {
		t.Errorf("streaming bw %v should be below one-shot %v", streaming, oneShot)
	}
}

// Fig. 3b: Optane writes peak at 3.26 GB/s (node 1) near 1 GB; node 0 is
// lower; both are ~88% below DRAM writes.
func TestOptaneWriteCurveMatchesFig3b(t *testing.T) {
	o1 := NewOptane(1)
	o0 := NewOptane(0)
	peak1 := gbps(o1.WriteBW(units.GB, units.GB))
	if math.Abs(peak1-3.26) > 0.01 {
		t.Errorf("Optane node1 write peak = %.2f, want 3.26", peak1)
	}
	peak0 := gbps(o0.WriteBW(units.GB, units.GB))
	if peak0 >= peak1 {
		t.Errorf("node0 write peak %.2f should be below node1 %.2f", peak0, peak1)
	}
	// Ramp below 1 GB.
	if small := gbps(o1.WriteBW(256*units.MB, 256*units.MB)); small >= peak1 {
		t.Errorf("256MB write %.2f should be below peak %.2f", small, peak1)
	}
	// Mild decay above the peak.
	large := gbps(o1.WriteBW(32*units.GB, 32*units.GB))
	if large >= peak1 || large < peak1*calib.OptaneWriteLargeDecay-0.01 {
		t.Errorf("32GB write %.2f outside (%.2f, %.2f)", large, peak1*calib.OptaneWriteLargeDecay, peak1)
	}
	// ~88% below DRAM.
	d := NewDRAM(0)
	deficit := 1 - peak1/gbps(d.WriteBW(units.GB, units.GB))
	if deficit < 0.85 || deficit > 0.91 {
		t.Errorf("write deficit vs DRAM = %.3f, want ~0.88", deficit)
	}
}

// Fig. 3a: Memory Mode completely hides the Optane read gap while the
// buffer fits the DRAM cache.
func TestMemoryModeMatchesDRAMWithinCache(t *testing.T) {
	m := NewMemoryMode(0)
	d := NewDRAM(0)
	for _, s := range []units.Bytes{256 * units.MB, 4 * units.GB, 32 * units.GB} {
		if got, want := m.ReadBW(s, s), d.ReadBW(s, s); got != want {
			t.Errorf("MM read at %v = %v, want DRAM %v", s, got, want)
		}
	}
}

func TestMemoryModeDegradesBeyondCache(t *testing.T) {
	m := NewMemoryMode(0)
	d := NewDRAM(0)
	o := NewOptane(0)
	ws := 324 * units.GB // uncompressed OPT-175B footprint
	mm := gbps(m.ReadBW(units.GB, ws))
	dr := gbps(d.ReadBW(units.GB, ws))
	op := gbps(o.ReadBW(units.GB, ws))
	if mm >= dr {
		t.Errorf("MM beyond cache %.2f should be below DRAM %.2f", mm, dr)
	}
	if mm <= op {
		t.Errorf("MM beyond cache %.2f should be above raw Optane %.2f", mm, op)
	}
}

// Fig. 3b: MM-1 writes overlap DRAM; MM-0 does not.
func TestMemoryModeWriteNodeAsymmetry(t *testing.T) {
	m0 := NewMemoryMode(0)
	m1 := NewMemoryMode(1)
	d := NewDRAM(0)
	if got, want := gbps(m1.WriteBW(units.GB, units.GB)), gbps(d.WriteBW(units.GB, units.GB)); got != want {
		t.Errorf("MM-1 write = %.2f, want DRAM %.2f", got, want)
	}
	if got := gbps(m0.WriteBW(units.GB, units.GB)); got >= gbps(d.WriteBW(units.GB, units.GB)) {
		t.Errorf("MM-0 write %.2f should be below DRAM", got)
	}
}

func TestStorageDevices(t *testing.T) {
	s := NewSSD()
	f := NewFSDAX(0)
	if !s.IsStorage() || !f.IsStorage() {
		t.Fatalf("SSD/FSDAX must require bounce buffers")
	}
	if NewDRAM(0).IsStorage() || NewOptane(0).IsStorage() || NewMemoryMode(0).IsStorage() {
		t.Fatalf("memory devices must not be storage")
	}
	// §IV-B: FSDAX outperforms SSD but stays below NVDRAM.
	ssd := gbps(s.ReadBW(units.GB, units.GB))
	dax := gbps(f.ReadBW(units.GB, units.GB))
	nv := gbps(NewOptane(0).ReadBW(units.GB, units.GB))
	if !(ssd < dax && dax < nv) {
		t.Errorf("want SSD(%.2f) < FSDAX(%.2f) < NVDRAM(%.2f)", ssd, dax, nv)
	}
}

func TestCXLDevices(t *testing.T) {
	fpga := NewCXL("CXL-FPGA", calib.CXLFPGABandwidth, 256*units.GiB)
	asic := NewCXL("CXL-ASIC", calib.CXLASICBandwidth, 256*units.GiB)
	if gbps(fpga.ReadBW(units.GB, 100*units.GB)) != 5.12 {
		t.Errorf("CXL-FPGA bw = %v, want 5.12", fpga.ReadBW(units.GB, units.GB))
	}
	if gbps(asic.ReadBW(units.GB, 100*units.GB)) != 28 {
		t.Errorf("CXL-ASIC bw = %v, want 28", asic.ReadBW(units.GB, units.GB))
	}
	if fpga.Kind() != KindCXL || asic.Kind() != KindCXL {
		t.Errorf("CXL kind mismatch")
	}
	if fpga.WriteBW(units.GB, units.GB) != fpga.ReadBW(units.GB, units.GB) {
		t.Errorf("CXL DRAM-backed writes should match reads")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindDRAM: "DRAM", KindOptane: "NVDRAM", KindMemoryMode: "MemoryMode",
		KindSSD: "SSD", KindFSDAX: "FSDAX", KindCXL: "CXL", Kind(99): "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// Property: every device's read bandwidth is positive and below the PCIe
// theoretical maximum for any sane transfer/working-set combination.
func TestBandwidthBoundsProperty(t *testing.T) {
	devs := []Device{
		NewDRAM(0), NewDRAM(1), NewOptane(0), NewOptane(1),
		NewMemoryMode(0), NewMemoryMode(1), NewSSD(), NewFSDAX(0),
		NewCXL("CXL-ASIC", calib.CXLASICBandwidth, units.TiB),
	}
	f := func(tMiB, wsMiB uint32) bool {
		transfer := units.Bytes(tMiB%(64*1024)) * units.MiB
		ws := transfer + units.Bytes(wsMiB%(512*1024))*units.MiB
		if transfer == 0 {
			transfer = units.MiB
		}
		for _, d := range devs {
			r := d.ReadBW(transfer, ws)
			w := d.WriteBW(transfer, ws)
			if r <= 0 || w <= 0 {
				return false
			}
			if float64(r) > float64(calib.PCIeTheoretical) || float64(w) > float64(calib.PCIeTheoretical) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: larger working sets never increase Optane read bandwidth.
func TestOptaneMonotoneWorkingSetProperty(t *testing.T) {
	o := NewOptane(0)
	f := func(tMiB, a, b uint32) bool {
		transfer := units.Bytes(tMiB%4096+1) * units.MiB
		ws1 := transfer + units.Bytes(a%(512*1024))*units.MiB
		ws2 := ws1 + units.Bytes(b%(512*1024))*units.MiB
		return o.ReadBW(transfer, ws2) <= o.ReadBW(transfer, ws1)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
