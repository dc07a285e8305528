package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig7a", "fig7bc", "fig8",
		"fig10", "fig11", "fig12", "fig13", "table1", "table2", "table3", "table4", "claims",
		"balance", "energy", "pareto", "mlc", "seqlen", "paged", "roofline",
		"ablation-dequant", "ablation-helm-pct", "ablation-kvoffload", "ablation-batch",
		"ablation-microbatch"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for _, id := range want {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Errorf("unknown id accepted")
	}
	// Ordering: figures before tables before claims.
	order := map[string]int{}
	for i, e := range all {
		order[e.ID] = i
	}
	if !(order["fig3"] < order["table1"] && order["table4"] < order["claims"]) {
		t.Errorf("presentation order broken: %v", order)
	}
}

// Every experiment runs and produces at least one non-empty table.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		tables, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", e.ID)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 {
				t.Errorf("%s: empty table %q", e.ID, tab.Title)
			}
		}
	}
}

// cell parses a numeric table cell, stripping +, %, x and parentheses.
func cell(s string) float64 {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimPrefix(s, "+")
	s = strings.TrimPrefix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// findRow locates the first row whose leading cells contain all keys.
func findRow(rows [][]string, keys ...string) []string {
	for _, r := range rows {
		joined := strings.Join(r, " | ")
		ok := true
		for _, k := range keys {
			if !strings.Contains(joined, k) {
				ok = false
				break
			}
		}
		if ok {
			return r
		}
	}
	return nil
}

// Fig. 7bc: the achieved distributions match §V-A's numbers.
func TestFig7bcAchievedDistributions(t *testing.T) {
	e, _ := ByID("fig7bc")
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	r := findRow(rows, "(65,15,20)", "overall")
	if r == nil {
		t.Fatal("missing overall row for (65,15,20)")
	}
	if math.Abs(cell(r[2])-58.6) > 1 || math.Abs(cell(r[3])-33.1) > 1 || math.Abs(cell(r[4])-8.3) > 1 {
		t.Errorf("achieved (65,15,20) = %v, want ~(58.6, 33.1, 8.3)", r)
	}
	r = findRow(rows, "(0,80,20)", "overall")
	if r == nil {
		t.Fatal("missing overall row for (0,80,20)")
	}
	if math.Abs(cell(r[3])-91.7) > 1 || math.Abs(cell(r[4])-8.3) > 1 {
		t.Errorf("achieved (0,80,20) = %v, want ~(0, 91.7, 8.3)", r)
	}
}

// Table IV shape: baseline is memory-bound on the MHA-compute side
// (ratio < 1), HeLM roughly doubles it, CXL-ASIC is the only config whose
// HeLM prefill crosses 1 (§V-D), and the FPGA column is ~5.5x below NVDRAM.
func TestTable4Shape(t *testing.T) {
	e, _ := ByID("table4")
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	base := findRow(rows, "Baseline", "1", "prefill")
	helm := findRow(rows, "HeLM", "1", "prefill")
	if base == nil || helm == nil {
		t.Fatal("missing Table IV rows")
	}
	baseNV, helmNV := cell(base[3]), cell(helm[3])
	if baseNV >= 1 || helmNV/baseNV < 1.7 {
		t.Errorf("HeLM should ~double MHAc/FFNl: %.2f -> %.2f", baseNV, helmNV)
	}
	// CXL-ASIC crosses 1 under HeLM ("the only configuration that achieves
	// FFN load latency lower than MHA compute latency with HeLM").
	if asic := cell(helm[5]); asic <= 1 {
		t.Errorf("HeLM CXL-ASIC MHAc/FFNl = %.2f, want > 1 (§V-D)", asic)
	}
	if fpga := cell(helm[4]); fpga >= 1 {
		t.Errorf("HeLM CXL-FPGA should stay memory-bound, got %.2f", fpga)
	}
	// FPGA/NVDRAM ratio tracks the bandwidth ratio (~5.12/18.5).
	if r := cell(base[4]) / cell(base[3]); r < 0.2 || r > 0.4 {
		t.Errorf("FPGA/NVDRAM ratio = %.2f, want ~0.28", r)
	}
	// ASIC/NVDRAM likewise tracks 28/18.4 ≈ 1.52 (Table IV: 0.36 -> ~0.55).
	if r := cell(base[5]) / cell(base[3]); r < 1.3 || r > 1.7 {
		t.Errorf("ASIC/NVDRAM ratio = %.2f, want ~1.5", r)
	}
}

// Fig. 12 derived: the headline All-CPU claims hold in shape.
func TestFig12Headlines(t *testing.T) {
	e, _ := ByID("fig12")
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	derived := tables[len(tables)-1].Rows
	r := findRow(derived, "b44 vs baseline b8 throughput")
	if r == nil {
		t.Fatal("missing 5x claim row")
	}
	if v := cell(r[2]); v < 4.5 || v > 6.5 {
		t.Errorf("All-CPU throughput gain = %v, want ~5x", r[2])
	}
	// Batch 44 on the baseline policy is rejected (§V-C: "only possible
	// with All-CPU").
	metrics := tables[0].Rows
	over := findRow(metrics, "baseline", "44")
	if over == nil || !strings.Contains(strings.Join(over, " "), "over GPU budget") {
		t.Errorf("baseline b44 should be over budget: %v", over)
	}
}

// Fig. 13: CXL projections keep the §V-D improvements.
func TestFig13Headlines(t *testing.T) {
	e, _ := ByID("fig13")
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	helm := tables[0].Rows
	r := findRow(helm, "CXL-FPGA", "HeLM")
	if r == nil {
		t.Fatal("missing CXL-FPGA HeLM row")
	}
	if v := cell(r[4]); v > -20 || v < -35 {
		t.Errorf("CXL-FPGA HeLM TBT delta = %v, want ~-27%%", r[4])
	}
	all := tables[1].Rows
	for _, dev := range []string{"CXL-FPGA", "CXL-ASIC"} {
		r := findRow(all, dev)
		if r == nil {
			t.Fatalf("missing %s row", dev)
		}
		if v := cell(r[4]); v < 4.2 || v > 6 {
			t.Errorf("%s b8->b44 gain = %v, want ~4.7-5", dev, r[4])
		}
	}
}

// The claims experiment measures every §IV-§V number within tolerance of
// the paper: every measured percentage is within 12 points of the paper's,
// every factor within 35%.
func TestClaimsWithinTolerance(t *testing.T) {
	e, _ := ByID("claims")
	tables, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range tables[0].Rows {
		paper, measured := r[2], r[3]
		pv, mv := cell(strings.Fields(paper)[0]), cell(measured)
		if math.IsNaN(pv) || math.IsNaN(mv) {
			continue // textual claims like "within 25%"
		}
		checked++
		if strings.HasPrefix(paper, "x") { // multiplicative factor
			if math.Abs(mv-pv)/pv > 0.35 {
				t.Errorf("%s: paper %s vs measured %s", r[1], paper, measured)
			}
			continue
		}
		// Percentage-point tolerance, wider for the larger effects (a
		// time reduction of N% maps to a throughput gain well above N%).
		tol := 12.0
		if math.Abs(pv) > 30 {
			tol = 20
		}
		if math.Abs(mv-pv) > tol {
			t.Errorf("%s: paper %s vs measured %s", r[1], paper, measured)
		}
	}
	if checked < 15 {
		t.Errorf("only %d numeric claims checked", checked)
	}
}

func TestLabelBatch(t *testing.T) {
	for b, want := range map[int]string{1: " b1", 8: " b8", 32: " b32", 44: " b44", 5: ""} {
		if got := labelBatch(b); got != want {
			t.Errorf("labelBatch(%d) = %q, want %q", b, got, want)
		}
	}
}
