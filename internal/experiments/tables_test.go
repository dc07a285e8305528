package experiments

import (
	"math"
	"testing"
)

func TestConfigsMatchTable3(t *testing.T) {
	cs := cxlConfigs()
	if len(cs) != 2 {
		t.Fatalf("got %d configs, want 2", len(cs))
	}
	if cs[0].Name != "CXL-FPGA" || math.Abs(cs[0].BW.GBpsf()-5.12) > 1e-9 {
		t.Errorf("CXL-FPGA = %+v", cs[0])
	}
	if cs[1].Name != "CXL-ASIC" || math.Abs(cs[1].BW.GBpsf()-28) > 1e-9 {
		t.Errorf("CXL-ASIC = %+v", cs[1])
	}
	for _, c := range cs {
		if c.MemTech == "" || c.Source == "" {
			t.Errorf("%s missing provenance", c.Name)
		}
	}
}
