package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

func TestErrCheckWrapGolden(t *testing.T) {
	runGolden(t, ErrCheckWrap, "errwraptest")
}

// TestDeterminismGolden covers both sides of the package gate: simpkg
// is named like a simulation package and yields findings, otherpkg is
// not and must stay silent despite identical code patterns.
func TestDeterminismGolden(t *testing.T) {
	runGolden(t, Determinism, "simpkg", "otherpkg")
}

// TestSimPackagesExist holds every simPackages key to a directory under
// internal/: matching is by bare package name, so an entry left behind
// by a rename or fold would match nothing and drop that code from the
// determinism check without a sound.
func TestSimPackagesExist(t *testing.T) {
	for name := range simPackages {
		fi, err := os.Stat(filepath.Join("..", name))
		if err != nil || !fi.IsDir() {
			t.Errorf("simPackages lists %q, but internal/%s is not a directory", name, name)
		}
	}
}

func TestCtxFlowGolden(t *testing.T) {
	runGolden(t, CtxFlow, "ctxtest")
}

// TestIgnoreDirectiveGolden runs determinism over a file where
// wall-clock seams carry //lint:helmvet-ignore directives: annotated
// lines are suppressed, unannotated and wrong-analyzer lines are not,
// and a determinism directive with nothing to suppress is dead.
func TestIgnoreDirectiveGolden(t *testing.T) {
	runGolden(t, Determinism, "ignoretest")
}

// TestMmapAliasGolden runs both sides of the cross-package fact:
// mmapsrc exports the view-returning function, mmaptest consumes it.
func TestMmapAliasGolden(t *testing.T) {
	runGolden(t, MmapAlias, "mmapsrc", "mmaptest")
}

func TestGoLeakGolden(t *testing.T) {
	runGolden(t, GoLeak, "goleaktest")
}

// TestRepoClean asserts the real repository is clean under the full
// five-analyzer suite: every invariant either holds or carries a
// reasoned //lint:helmvet-ignore directive. A regression that trips
// any analyzer fails here before it reaches CI's lint gate.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load and typecheck is not -short friendly")
	}
	diags, err := Run("../..", []string{"./..."}, Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

func TestSuiteStable(t *testing.T) {
	names := []string{"errcheckwrap", "determinism", "ctxflow", "mmapalias", "goleak"}
	s := Suite()
	if len(s) != len(names) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(s), len(names))
	}
	for i, a := range s {
		if a.Name != names[i] {
			t.Errorf("Suite()[%d] = %s, want %s", i, a.Name, names[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s is missing Doc or Run", a.Name)
		}
	}
}
