package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldens are the documented invocations (README, EXPERIMENTS.md, the
// usage comments) and the byte-exact stdout each must print.
var goldens = []struct {
	file string
	args string
}{
	{"full", ""},
	{"list", "-list"},
	{"table3_csv", "-csv -run table3"},
	{"sim_opt66b", "sim -model OPT-66B -mem NVDRAM"},
	{"sim_opt66b_compress", "sim -model OPT-66B -mem NVDRAM -compress"},
	// HeLM's embedding layers take the paper's (0, 80, 20) split on every
	// memory configuration, so SSD and FSDAX place what DRAM does.
	{"sim_helm_DRAM", "sim -model OPT-175B -mem DRAM -policy helm -compress"},
	{"sim_helm_MemoryMode", "sim -model OPT-175B -mem MemoryMode -policy helm -compress"},
	{"sim_helm_SSD", "sim -model OPT-175B -mem SSD -policy helm -compress"},
	{"sim_helm_FSDAX", "sim -model OPT-175B -mem FSDAX -policy helm -compress"},
	{"tune_qos", "tune -objective qos -tbt 6.5s"},
	{"tune_min_tbt", "tune -model OPT-175B -mem NVDRAM -objective min-tbt"},
	{"tune_cxl_asic", "tune -mem CXL-ASIC -objective max-throughput"},
	{"serve_readme", "serve -rate 2 -cap 44 -slo 90s"},
	{"serve_usage", "serve -mem NVDRAM -policy all-cpu -cap 44 -rate 2 -n 200 -slo 60s"},
	{"serve_overload", "serve -cap 4 -rate 0.05 -n 200 -slo 600s"},
	{"serve_overload_bounded", "serve -cap 4 -rate 0.05 -n 200 -slo 600s -max-queue 8 -max-wait 400s"},
	{"serve_mix_cost", "serve -mix -n 240 -seed 7 -token-budget 60000 -brownout-high 0.5 -brownout-low 0.3 -brownout-sustain 4 " +
		"-mix-interactive 2,128,64,1800s -mix-rag 1,1024,64,2400s -mix-batch 1,256,256,,3600s"},
	{"serve_mix_count", "serve -mix -n 240 -seed 7 -mix-interactive 2,128,64,1800s -mix-rag 1,1024,64,2400s -mix-batch 1,256,256,,3600s"},
	{"serve_mix_usage", "serve -mix -token-budget 120000 -mix-interactive 2,128,64,60s -mix-rag 1,1024,64,180s -mix-batch 0.5,256,256 -n 300"},
}

// helmbench runs the command and returns its exit status and output.
func helmbench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestGoldenOutput(t *testing.T) {
	for _, g := range goldens {
		want, err := os.ReadFile(filepath.Join("testdata", g.file+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		code, out, stderr := helmbench(strings.Fields(g.args)...)
		if code != 0 {
			t.Errorf("helmbench %s: exit %d\n%s", g.args, code, stderr)
			continue
		}
		if out != string(want) {
			t.Errorf("helmbench %s: stdout differs from testdata/%s.golden:\n%s", g.args, g.file, out)
		}
	}
}

// The README's traced sim run: its stdout is golden and the trace it
// writes (1.1 MB) is pinned by its digest.
func TestSimTrace(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sim_readme.golden"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	code, out, stderr := helmbench(strings.Fields("sim -model OPT-175B -mem NVDRAM -policy helm -batch 1 -compress -trace pipeline.json")...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if out != string(want) {
		t.Errorf("stdout differs from testdata/sim_readme.golden:\n%s", out)
	}
	trace, err := os.ReadFile("pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	const wantSHA256 = "be34965072a6516f6993cc5b3e96773d0d510b0c53bd0fc06cc9587161bde494"
	if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != wantSHA256 {
		t.Errorf("trace sha256 %s, want %s (%d bytes)", got, wantSHA256, len(trace))
	}
}

func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args string
		code int
	}{
		{"-run table3", 0},
		{"-h", 0},
		{"sim -h", 0},
		{"-run nosuch", 1},
		{"sim -policy all-gpu", 1},         // OPT-175B does not fit the GPU
		{"tune -objective qos -tbt 1s", 1}, // no configuration meets the bound
		{"serve -cap 0", 1},
		{"serve -cap 2000000000 -n 20 -rate 0.01", 0}, // a huge cap sizes no allocation
		{"-nosuchflag", 2},
		// Retired knobs fail loudly instead of being ignored.
		{"-parallel 1", 2},
		{"-cachestats", 2},
		{"-threads 2", 2},
		{"nosuch", 2},
		{"-run table3 extra", 2},
		{"sim -model OPT-1T", 2},
		{"sim -mem tape", 2},
		{"sim -policy bogus", 2},
		{"tune -objective fastest", 2},
		{"serve -mix-rag 1,2", 2},
		{"serve -mix-batch 1,256,256,soon", 2},
	} {
		code, _, stderr := helmbench(strings.Fields(c.args)...)
		if code != c.code {
			t.Errorf("helmbench %s: exit %d, want %d\n%s", c.args, code, c.code, stderr)
		}
		if code != 0 && stderr == "" {
			t.Errorf("helmbench %s: exit %d with nothing on stderr", c.args, code)
		}
	}
}
