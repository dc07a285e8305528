package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const (
	otherpkg   = "../../internal/analysis/testdata/src/otherpkg"
	ignoretest = "../../internal/analysis/testdata/src/ignoretest"
)

// TestBadFlagExitsUsage pins -json as the only flag: the per-analyzer
// switches and -strict-directives are gone, so passing one is a usage
// error like any unknown flag.
func TestBadFlagExitsUsage(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-determinism=false", "-strict-directives"} {
		var out, errw strings.Builder
		if code := run([]string{flag}, &out, &errw); code != 2 {
			t.Errorf("%s: exit code %d, want 2 for unknown flag", flag, code)
		}
	}
}

// TestExitCodeLoadFailure pins the third leg of the exit contract:
// a pattern that loads nothing is 2, not 0 or 1.
func TestExitCodeLoadFailure(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"./no-such-dir"}, &out, &errw); code != 2 {
		t.Errorf("exit code %d, want 2 for unloadable pattern\nstderr: %s", code, errw.String())
	}
}

// TestJSONOutput checks the machine-readable contract CI consumes:
// valid JSON with the documented fields, directive-suppressed findings
// present and marked ignored, and the exit code driven by active
// findings only.
func TestJSONOutput(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-json", ignoretest}, &out, &errw)
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
		Ignored  bool   `json:"ignored"`
	}
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	var active, ignored int
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding with empty fields: %+v", f)
		}
		if f.Ignored {
			ignored++
		} else {
			active++
		}
	}
	if ignored == 0 {
		t.Errorf("ignoretest's suppressed findings should appear marked ignored, got %+v", findings)
	}
	if active > 0 && code != 1 || active == 0 && code != 0 {
		t.Errorf("exit code %d disagrees with %d active finding(s)", code, active)
	}

	// A clean run still emits valid JSON (an empty array) and exits 0.
	out.Reset()
	errw.Reset()
	if code := run([]string{"-json", otherpkg}, &out, &errw); code != 0 {
		t.Fatalf("clean -json run exited %d\nstderr: %s", code, errw.String())
	}
	if s := strings.TrimSpace(out.String()); s != "[]" {
		t.Errorf("clean -json run printed %q, want []", s)
	}
}

// TestStrictDirectives checks that directives are held strictly on
// every run: ignoretest's stale directive, which suppresses nothing, is
// an active finding, so the run exits 1 and names it.
func TestStrictDirectives(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{ignoretest}, &out, &errw); code != 1 {
		t.Fatalf("exit code %d, want 1 (dead directive)\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "directive for determinism is dead") {
		t.Errorf("no dead-directive finding in output:\n%s", out.String())
	}
}
