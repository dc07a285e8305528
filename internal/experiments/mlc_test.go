package experiments

import (
	"testing"

	"helmsim/internal/memdev"
)

func TestMeasureValidation(t *testing.T) {
	if _, err := mlcMeasure(-1, 0, memdev.KindDRAM); err == nil {
		t.Errorf("negative node accepted")
	}
	if _, err := mlcMeasure(0, 5, memdev.KindDRAM); err == nil {
		t.Errorf("out-of-range node accepted")
	}
	if _, err := mlcMeasure(0, 0, memdev.KindSSD); err == nil {
		t.Errorf("SSD target accepted (not byte-addressable)")
	}
}

func TestLocalVsRemote(t *testing.T) {
	for _, kind := range []memdev.Kind{memdev.KindDRAM, memdev.KindOptane, memdev.KindMemoryMode} {
		local, err := mlcMeasure(0, 0, kind)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := mlcMeasure(0, 1, kind)
		if err != nil {
			t.Fatal(err)
		}
		if !local.isLocal() || remote.isLocal() {
			t.Errorf("%v locality flags wrong", kind)
		}
		if remote.ReadBW >= local.ReadBW {
			t.Errorf("%v remote read %v not below local %v", kind, remote.ReadBW, local.ReadBW)
		}
		if remote.Latency <= local.Latency {
			t.Errorf("%v remote latency %v not above local %v", kind, remote.Latency, local.Latency)
		}
	}
}

// [30]-[32]: Optane reads ~2.5x below DRAM, writes ~6x below; remote Optane
// writes collapse further ([31]).
func TestOptaneDeficitsMatchLiterature(t *testing.T) {
	dram, _ := mlcMeasure(0, 0, memdev.KindDRAM)
	opt, _ := mlcMeasure(0, 0, memdev.KindOptane)
	readRatio := float64(dram.ReadBW) / float64(opt.ReadBW)
	if readRatio < 2.2 || readRatio > 2.8 {
		t.Errorf("DRAM/Optane read ratio = %.2f, want ~2.5", readRatio)
	}
	writeRatio := float64(dram.WriteBW) / float64(opt.WriteBW)
	if writeRatio < 5 || writeRatio > 7 {
		t.Errorf("DRAM/Optane write ratio = %.2f, want ~6", writeRatio)
	}
	optRemote, _ := mlcMeasure(0, 1, memdev.KindOptane)
	dramRemote, _ := mlcMeasure(0, 1, memdev.KindDRAM)
	// Optane writes lose more from going remote than DRAM writes do.
	optDrop := float64(optRemote.WriteBW) / float64(opt.WriteBW)
	dramDrop := float64(dramRemote.WriteBW) / float64(dram.WriteBW)
	if optDrop >= dramDrop {
		t.Errorf("remote Optane write drop %.2f not worse than DRAM's %.2f", optDrop, dramDrop)
	}
}

// §IV-A: remote Memory Mode cannot reach remote DRAM bandwidth.
func TestRemoteMMBelowRemoteDRAM(t *testing.T) {
	mm, _ := mlcMeasure(0, 1, memdev.KindMemoryMode)
	dram, _ := mlcMeasure(0, 1, memdev.KindDRAM)
	if mm.ReadBW >= dram.ReadBW {
		t.Errorf("remote MM %v should trail remote DRAM %v (§IV-A)", mm.ReadBW, dram.ReadBW)
	}
	// Locally MM serves from its DRAM cache at DRAM speed.
	mmL, _ := mlcMeasure(0, 0, memdev.KindMemoryMode)
	dramL, _ := mlcMeasure(0, 0, memdev.KindDRAM)
	if mmL.ReadBW != dramL.ReadBW {
		t.Errorf("local MM %v should match local DRAM %v", mmL.ReadBW, dramL.ReadBW)
	}
}

func TestMatrixComplete(t *testing.T) {
	m, err := mlcMatrix()
	if err != nil {
		t.Fatal(err)
	}
	// 2 initiators x 2 targets x 3 kinds.
	if len(m) != 12 {
		t.Fatalf("matrix has %d entries, want 12", len(m))
	}
	seen := map[[3]int]bool{}
	for _, a := range m {
		key := [3]int{a.FromNode, a.TargetNode, int(a.Target)}
		if seen[key] {
			t.Errorf("duplicate entry %v", key)
		}
		seen[key] = true
		if a.ReadBW <= 0 || a.WriteBW <= 0 || a.Latency <= 0 {
			t.Errorf("non-positive measurement: %+v", a)
		}
	}
}
