package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// BENCHMARK.json is `bench -spec` verbatim: the harness's tables are the
// only place a metric is defined.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	if got, want := readSpec(t), benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the harness's tables; regenerate it with `go run . -spec`\n got %+v\nwant %+v", got, want)
	}
}

// Every workload runs at smoke sizes, untraced and traced, passes its
// correctness checks, and emits exactly BENCHMARK.json's metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	s := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			ev := env{sz: smokeSizes(), seed: 1, dir: out, solo: map[string][]int{}}
			rec, err := runWorkload(context.Background(), w.Name, ev, 0.2, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if len(rec.Problems) > 0 || rec.Failed > 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, problems %v", w.Name, traced, rec.Attempted, rec.Failed, rec.Problems)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no Chrome trace: %v", w.Name, err)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(rec.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rec.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, d.Name)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestTrafficIsAFunctionOfTheSeed(t *testing.T) {
	render := func(seed int64) string {
		sched, first := fleetSchedule(seed, 60, time.Second, 2*time.Second, 512)
		type timed struct {
			genRequest
			Due   time.Duration
			Body  string
			First int
		}
		var all []any
		for _, r := range sched {
			all = append(all, timed{r, r.Due, string(r.Body), first})
		}
		all = append(all, batchList(seed, 24, 48, 32, 4, 48, 2048), latencyPrompts(seed, 2, 128, 2048))
		data, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if render(1) != render(1) {
		t.Error("one seed gave two different work lists")
	}
	if render(1) == render(2) {
		t.Error("two seeds gave the same work list")
	}
}

// The engine picks its fetch path by asserting optional interfaces on
// the store, so the timing wrapper must show exactly those of what it
// wraps, or the traced pass would measure another path.
type plainStore struct{}

func (plainStore) Tensor(int, string) ([]float32, error) { return nil, nil }

type fullStore struct{ plainStore }

func (fullStore) TensorInto(int, string, []float32) ([]float32, error) { return nil, nil }
func (fullStore) TensorView(int, string) ([]float32, error)            { return nil, nil }

func TestTimingWrapperKeepsStoreShape(t *testing.T) {
	sz := smokeSizes()
	mem, err := synthesize(sz.tiny)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := writeCheckpoint(path, sz.tiny, mem); err != nil {
		t.Fatal(err)
	}
	file, err := openCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	seen := map[string]bool{}
	for _, tc := range []struct {
		name  string
		shape string
		wrap  func(*tracer) string
	}{
		{"plain", storeShape(plainStore{}), func(tr *tracer) string { w, _ := wrapStore(plainStore{}, tr, "load"); return storeShape(w) }},
		{"MemStore", storeShape(mem), func(tr *tracer) string { w, _ := wrapStore(mem, tr, "load"); return storeShape(w) }},
		{"FileStore", storeShape(file), func(tr *tracer) string { w, _ := wrapStore(file, tr, "load"); return storeShape(w) }},
		{"full", storeShape(fullStore{}), func(tr *tracer) string { w, _ := wrapStore(fullStore{}, tr, "load"); return storeShape(w) }},
	} {
		seen[tc.shape] = true
		if got := tc.wrap(newTracer()); got != tc.shape {
			t.Errorf("%s: store is %q, wrapper is %q", tc.name, tc.shape, got)
		}
		if got := tc.wrap(nil); got != tc.shape {
			t.Errorf("%s: untraced pass changed the store from %q to %q", tc.name, tc.shape, got)
		}
	}
	if len(seen) != 4 {
		t.Errorf("the four stores cover shapes %v, want all four", seen)
	}
}

// A duration is scaled by the readings around it: the mean of those
// within pollPad, and the nearest one on each side when the interval is
// far from any.
func TestSlowdownUsesTheReadingsAroundAnInterval(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &speedTrack{}
	for i, v := range []float64{1, 1, 2, 2, 4} { // readings at 0, 1, 2, 3, 4 s
		s.readings = append(s.readings, speedReading{at(1000 * i), v * probeRefMS})
	}
	for _, tc := range []struct {
		name     string
		from, to int
		want     float64
	}{
		{"between two readings: the nearest on each side", 1400, 1600, 1.5},
		{"around one reading", 1900, 2100, 2},
		{"spanning three", 1900, 4100, (2 + 2 + 4) / 3.0},
		{"before the first", -900, -800, 1},
		{"after the last", 5000, 6000, 4},
	} {
		if got := s.slowdown(at(tc.from), at(tc.to)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: slowdown %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := s.atRef(at(1900), at(2100), 1); math.Abs(got-100) > 1e-9 {
		t.Errorf("200 ms of compute on a host 2× slow: %v ms at reference speed, want 100", got)
	}
	if got := s.atRef(at(1900), at(2100), 0.5); math.Abs(got-200/1.5) > 1e-9 {
		t.Errorf("200 ms, half of it compute, on a host 2× slow: %v ms at reference speed, want %v", got, 200/1.5)
	}
}
