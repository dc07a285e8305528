package experiments

import (
	"math"
	"testing"

	"helmsim/internal/calib"
	"helmsim/internal/model"
)

func TestBalancePoints(t *testing.T) {
	hbm := a100HBM()
	link := a100OverLink(calib.HostToGPUOptaneSmall)
	if hbm.balancePoint() <= 0 || link.balancePoint() <= 0 {
		t.Fatalf("non-positive balance points")
	}
	// Streaming over the slow link raises the balance point ~60x: far more
	// kernels become memory-bound out-of-core.
	if r := link.balancePoint() / hbm.balancePoint(); r < 40 || r > 90 {
		t.Errorf("link/HBM balance ratio = %.1f, want ~62", r)
	}
	if (machine{Peak: 1, BW: 0}).balancePoint() != 0 {
		t.Errorf("zero bandwidth balance should be 0")
	}
}

// §II-A: "prefill is usually compute-bound while decode is memory-bound".
// On-GPU weights (HBM machine): a batch-32 prefill FFN crosses the balance
// point; a batch-1 decode GEMV does not.
func TestPrefillComputeBoundDecodeMemoryBound(t *testing.T) {
	cfg := model.OPT30B()
	m := a100HBM()

	pf, pb, err := layerKernel(cfg, model.LayerFFN, "prefill", 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := m.classify(model.LayerFFN, "prefill", pf, pb)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Bound != computeBound {
		t.Errorf("batch-32 prefill FFN = %v (intensity %.1f vs balance %.1f), want compute-bound",
			pa.Bound, pa.Intensity, pa.Balance)
	}

	df, db, err := layerKernel(cfg, model.LayerFFN, "decode", 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	da, err := m.classify(model.LayerFFN, "decode", df, db)
	if err != nil {
		t.Fatal(err)
	}
	if da.Bound != memoryBound {
		t.Errorf("batch-1 decode FFN = %v, want memory-bound", da.Bound)
	}
	// Decode GEMV intensity is ~1 flop per weight byte (2 flops / 2 bytes).
	if da.Intensity < 0.8 || da.Intensity > 1.2 {
		t.Errorf("decode intensity = %.2f, want ~1", da.Intensity)
	}
}

// §IV-B: batching converts the FFN GEMV to GEMM (intensity scales with
// batch) but attention's per-prompt KV GEMVs keep fixed intensity.
func TestBatchingIntensityScaling(t *testing.T) {
	cfg := model.OPT175B()
	f1, b1, _ := layerKernel(cfg, model.LayerFFN, "decode", 1, 128)
	f44, b44, _ := layerKernel(cfg, model.LayerFFN, "decode", 44, 128)
	i1 := f1 / float64(b1)
	i44 := f44 / float64(b44)
	if math.Abs(i44/i1-44) > 0.01 {
		t.Errorf("FFN intensity scaled %.1fx for batch 44, want 44x", i44/i1)
	}
	af1, ab1, err := attentionKernel(cfg, 1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	af44, ab44, err := attentionKernel(cfg, 44, 2048)
	if err != nil {
		t.Fatal(err)
	}
	ai1 := af1 / float64(ab1)
	ai44 := af44 / float64(ab44)
	if math.Abs(ai44-ai1) > 1e-9 {
		t.Errorf("attention intensity changed with batch: %.3f -> %.3f", ai1, ai44)
	}
	if ai1 > 2 {
		t.Errorf("attention intensity = %.2f, should stay ~1 flop/byte", ai1)
	}
}

// Out-of-core regime: streaming weights over Optane makes even the
// batch-44 decode FFN memory-bound (the paper's core observation).
func TestOutOfCoreAlwaysMemoryBoundInDecode(t *testing.T) {
	cfg := model.OPT175B()
	link := a100OverLink(calib.HostToGPUOptaneSmall)
	f, b, _ := layerKernel(cfg, model.LayerFFN, "decode", 44, 128)
	a, err := link.classify(model.LayerFFN, "decode", f, b)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bound != memoryBound {
		t.Errorf("streamed batch-44 decode FFN = %v, want memory-bound", a.Bound)
	}
	// Attainable flops collapse to intensity x link bandwidth.
	want := a.Intensity * float64(calib.HostToGPUOptaneSmall)
	if math.Abs(float64(a.AttainableFLOPS)-want)/want > 1e-9 {
		t.Errorf("attainable = %v, want %v", float64(a.AttainableFLOPS), want)
	}
}

func TestValidation(t *testing.T) {
	m := a100HBM()
	if _, err := m.classify(model.LayerFFN, "x", -1, 0); err == nil {
		t.Errorf("negative flops accepted")
	}
	if _, err := m.classify(model.LayerFFN, "x", 0, -1); err == nil {
		t.Errorf("negative bytes accepted")
	}
	if _, _, err := layerKernel(model.Config{}, model.LayerFFN, "decode", 1, 1); err == nil {
		t.Errorf("invalid config accepted")
	}
	if _, _, err := layerKernel(model.OPT30B(), model.LayerFFN, "decode", 0, 1); err == nil {
		t.Errorf("zero batch accepted")
	}
	if _, _, err := layerKernel(model.OPT30B(), model.LayerInputEmbed, "decode", 1, 1); err == nil {
		t.Errorf("embedding layer accepted")
	}
	if _, _, err := attentionKernel(model.OPT30B(), 0, 128); err == nil {
		t.Errorf("zero batch attention accepted")
	}
	if _, _, err := attentionKernel(model.Config{}, 1, 128); err == nil {
		t.Errorf("invalid config attention accepted")
	}
	if memoryBound.String() != "memory-bound" || computeBound.String() != "compute-bound" {
		t.Errorf("boundness names broken")
	}
}
