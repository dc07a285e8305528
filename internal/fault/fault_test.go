package fault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"helmsim/internal/quant"
)

// memStore is a trivial backing store for injection tests.
type memStore struct{ calls int }

func (m *memStore) Tensor(layer int, name string) ([]float32, error) {
	m.calls++
	return []float32{1, 2, 3, 4}, nil
}

func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{TransientRate: -0.1},
		{TransientRate: 1.5},
		{CorruptRate: 2},
		{SpikeRate: -1},
		{FailAtAccess: -3},
		{CorruptAtAccess: -1},
		{Spike: -time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
	if _, err := NewStore(nil, Plan{}); err == nil {
		t.Error("nil backing accepted")
	}
	if _, err := NewReaderAt(nil, Plan{}); err == nil {
		t.Error("nil reader accepted")
	}
}

func TestZeroPlanIsTransparent(t *testing.T) {
	ms := &memStore{}
	s, err := NewStore(ms, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		d, err := s.Tensor(0, "w")
		if err != nil {
			t.Fatal(err)
		}
		if d[0] != 1 {
			t.Fatalf("data altered: %v", d)
		}
	}
	st := s.Stats()
	if st.Transients != 0 || st.Corruptions != 0 || st.Spikes != 0 {
		t.Errorf("zero plan injected: %+v", st)
	}
	if st.Accesses != 50 {
		t.Errorf("accesses = %d, want 50", st.Accesses)
	}
}

func TestTransientInjectionIsSeededAndTyped(t *testing.T) {
	seq := func(seed int64) []bool {
		s, err := NewStore(&memStore{}, Plan{Seed: seed, TransientRate: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 200; i++ {
			_, err := s.Tensor(0, "w")
			if err != nil && !IsTransient(err) {
				t.Fatalf("injected error is not transient: %v", err)
			}
			out = append(out, err != nil)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at access %d", i)
		}
	}
	var fails int
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("rate 0.3 produced %d/%d failures", fails, len(a))
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestFailExactlyAtAccess(t *testing.T) {
	s, err := NewStore(&memStore{}, Plan{FailAtAccess: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		_, err := s.Tensor(0, "w")
		if (err != nil) != (i == 3) {
			t.Errorf("access %d: err = %v", i, err)
		}
		if i == 3 && !errors.Is(err, ErrTransient) {
			t.Errorf("fail-at error not transient: %v", err)
		}
	}
}

func TestStoreCorruptionFlipsCopyNotBacking(t *testing.T) {
	ms := &memStore{}
	s, err := NewStore(ms, Plan{CorruptAtAccess: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Tensor(0, "w")
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 3, 4}
	diff := 0
	for i := range d {
		if d[i] != want[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d elements, want exactly 1: %v", diff, d)
	}
	// The next access is clean again and the backing data was untouched.
	d2, err := s.Tensor(0, "w")
	if err != nil {
		t.Fatal(err)
	}
	for i := range d2 {
		if d2[i] != want[i] {
			t.Fatalf("backing data corrupted: %v", d2)
		}
	}
}

func TestReaderAtInjection(t *testing.T) {
	base := bytes.NewReader([]byte("the quick brown fox jumps over the lazy dog"))
	var slept []time.Duration
	ra, err := NewReaderAt(base, Plan{
		FailAtAccess:    2,
		CorruptAtAccess: 3,
		SpikeRate:       1,
		Spike:           5 * time.Millisecond,
		Sleep:           func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := ra.ReadAt(buf, 4); err != nil { // access 1: clean
		t.Fatal(err)
	}
	if string(buf) != "quick bro" {
		t.Fatalf("clean read altered: %q", buf)
	}
	if _, err := ra.ReadAt(buf, 4); err == nil || !IsTransient(err) { // access 2: fails
		t.Fatalf("access 2: err = %v, want transient", err)
	}
	if _, err := ra.ReadAt(buf, 4); err != nil { // access 3: corrupted
		t.Fatal(err)
	}
	if string(buf) == "quick bro" {
		t.Fatal("corrupting read returned clean bytes")
	}
	if len(slept) != 3 {
		t.Errorf("spike sleeps = %d, want 3 (every access)", len(slept))
	}
	st := ra.Stats()
	if st.Accesses != 3 || st.Transients != 1 || st.Corruptions != 1 || st.Spikes != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDisarmPausesInjection(t *testing.T) {
	s, err := NewStore(&memStore{}, Plan{TransientRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prev := s.SetArmed(false); !prev {
		t.Error("injector did not start armed")
	}
	if _, err := s.Tensor(0, "w"); err != nil {
		t.Fatalf("disarmed injector failed: %v", err)
	}
	if st := s.Stats(); st.Accesses != 0 {
		t.Errorf("disarmed access counted: %+v", st)
	}
	s.SetArmed(true)
	if _, err := s.Tensor(0, "w"); err == nil {
		t.Error("armed rate-1 injector passed")
	}
}

func TestIsTransientClassification(t *testing.T) {
	wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", ErrTransient))
	if !IsTransient(wrapped) {
		t.Error("wrapped ErrTransient not classified transient")
	}
	if IsTransient(io.EOF) || IsTransient(nil) {
		t.Error("non-transient classified transient")
	}
	if IsTransient(errors.New("transient-looking but untyped")) {
		t.Error("string matching leaked into classification")
	}
	if !IsTransient(markerErr{}) {
		t.Error("Transient() bool marker not honored")
	}
}

// markerErr carries transience via the method convention rather than the
// sentinel.
type markerErr struct{}

func (markerErr) Error() string   { return "marked" }
func (markerErr) Transient() bool { return true }

func TestErrorMessagesCarryContext(t *testing.T) {
	s, err := NewStore(&memStore{}, Plan{FailAtAccess: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Tensor(7, "w_q")
	if err == nil || !strings.Contains(err.Error(), "L7/w_q") {
		t.Errorf("injected error lost tensor identity: %v", err)
	}
}

// packedMem serves "w" as a packed 4-bit view and everything else as f32
// only, as a checkpoint store serves a projection and a norm gain.
type packedMem struct {
	memStore
	p            quant.Packed
	packedCalls  int
	tensorCalled []string
}

func (m *packedMem) Tensor(layer int, name string) ([]float32, error) {
	m.tensorCalled = append(m.tensorCalled, name)
	return m.memStore.Tensor(layer, name)
}

func (m *packedMem) TensorPacked(layer int, name string) (quant.Packed, bool, error) {
	m.packedCalls++
	if name != "w" {
		return quant.Packed{}, false, nil
	}
	return m.p, true, nil
}

func testPacked(t *testing.T) quant.Packed {
	t.Helper()
	x := make([]float32, 128)
	for i := range x {
		x[i] = float32(i%13) - 6
	}
	qt, err := quant.Quantize(x, quant.Default())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := qt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p, err := quant.ViewPacked(blob)
	if err != nil {
		t.Fatalf("ViewPacked: %v", err)
	}
	return p
}

// TensorPacked forwards the backing store's views. A fetch the backing
// serves packed is one access: spikes and transients apply, a corrupt
// outcome is neither applied nor counted. A tensor with no packed form,
// or a backing with no packed path, is not an access at all — the
// caller's Tensor fallback is.
func TestStorePackedForwarding(t *testing.T) {
	pm := &packedMem{p: testPacked(t)}
	var slept int
	s, err := NewStore(pm, Plan{CorruptAtAccess: 1, FailAtAccess: 2, SpikeRate: 1, Spike: time.Millisecond, Sleep: func(time.Duration) { slept++ }})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.TensorPacked(0, "b"); ok || err != nil {
		t.Fatalf("f32 record: ok=%v err=%v, want not packed", ok, err)
	}
	if st := s.Stats(); st.Accesses != 0 {
		t.Fatalf("a tensor with no packed form counted as an access: %+v", st)
	}
	p, ok, err := s.TensorPacked(0, "w") // access 1: corrupt, not applied
	if !ok || err != nil {
		t.Fatalf("packed record: ok=%v err=%v", ok, err)
	}
	want, got := pm.p.DequantizeInto(nil), p.DequantizeInto(nil)
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("packed view altered at %d: %v, want %v", i, got[i], want[i])
		}
	}
	if _, ok, err := s.TensorPacked(0, "w"); ok || !IsTransient(err) { // access 2: fails
		t.Fatalf("access 2: ok=%v err=%v, want a transient failure", ok, err)
	}
	if _, err := s.Tensor(0, "b"); err != nil { // access 3: the f32 fallback
		t.Fatal(err)
	}
	if st := s.Stats(); st != (Stats{Accesses: 3, Transients: 1, Corruptions: 0, Spikes: 3}) || slept != 3 {
		t.Errorf("stats = %+v, %d sleeps; want 3 accesses, 1 transient, 0 corruptions, 3 spikes and sleeps", st, slept)
	}
	if len(pm.tensorCalled) != 1 || pm.packedCalls != 3 {
		t.Errorf("backing saw Tensor %v and %d packed fetches, want [b] and 3", pm.tensorCalled, pm.packedCalls)
	}

	plain, err := NewStore(&memStore{}, Plan{TransientRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := plain.TensorPacked(0, "w"); ok || err != nil {
		t.Fatalf("backing without a packed path: ok=%v err=%v", ok, err)
	}
	if st := plain.Stats(); st.Accesses != 0 {
		t.Errorf("a store with no packed path counted an access: %+v", st)
	}
}

// A packed access draws the same samples as a Tensor access, so a seeded
// plan fails the same access numbers whichever path each access takes.
func TestStorePackedAccessesKeepTheFaultSequence(t *testing.T) {
	plan := Plan{Seed: 3, TransientRate: 0.3, CorruptRate: 0.4}
	run := func(packed func(i int) bool) []bool {
		s, err := NewStore(&packedMem{p: testPacked(t)}, plan)
		if err != nil {
			t.Fatal(err)
		}
		var fails []bool
		for i := 0; i < 200; i++ {
			if packed(i) {
				_, _, err = s.TensorPacked(0, "w")
			} else {
				_, err = s.Tensor(0, "w")
			}
			fails = append(fails, err != nil)
		}
		return fails
	}
	tensor, mixed := run(func(int) bool { return false }), run(func(i int) bool { return i%3 != 0 })
	for i := range tensor {
		if tensor[i] != mixed[i] {
			t.Fatalf("access %d failed on one path and not the other", i+1)
		}
	}
}

// intoMem is a backing store with a decode-into path; it counts its
// TensorInto calls.
type intoMem struct {
	memStore
	into int
}

func (m *intoMem) TensorInto(layer int, name string, dst []float32) ([]float32, error) {
	m.into++
	return append(dst[:0], 1, 2, 3, 4), nil
}

// TensorInto reaches the backing store's TensorInto, filling the
// caller's buffer, as one access of the plan that draws the same
// samples as a Tensor access; over a store with no TensorInto it is
// Tensor.
func TestStoreIntoForwarding(t *testing.T) {
	plan := Plan{Seed: 5, TransientRate: 0.3}
	run := func(into func(i int) bool) ([]bool, *intoMem) {
		m := &intoMem{}
		s, err := NewStore(m, plan)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float32, 4)
		var fails []bool
		for i := 0; i < 200; i++ {
			var d []float32
			if into(i) {
				d, err = s.TensorInto(0, "w", dst)
				if err == nil && &d[0] != &dst[0] {
					t.Fatalf("access %d: TensorInto did not fill the caller's buffer", i+1)
				}
			} else {
				_, err = s.Tensor(0, "w")
			}
			fails = append(fails, err != nil)
		}
		if st := s.Stats(); st.Accesses != 200 {
			t.Errorf("%d accesses counted, want 200", st.Accesses)
		}
		return fails, m
	}
	tensor, _ := run(func(int) bool { return false })
	mixed, m := run(func(i int) bool { return i%3 != 0 })
	for i := range tensor {
		if tensor[i] != mixed[i] {
			t.Fatalf("access %d failed on one path and not the other", i+1)
		}
	}
	if m.into == 0 {
		t.Error("no TensorInto reached the backing store")
	}

	plain, err := NewStore(&memStore{}, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := plain.TensorInto(0, "w", make([]float32, 4)); err != nil || len(d) != 4 {
		t.Fatalf("TensorInto over a store without one: %v, %v", d, err)
	}
}

// A corrupt TensorInto access flips one bit in the caller's buffer; the
// store's data is untouched.
func TestStoreIntoCorruptionFlipsCallersBuffer(t *testing.T) {
	m := &intoMem{}
	s, err := NewStore(m, Plan{CorruptAtAccess: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, 4)
	d, err := s.TensorInto(0, "w", dst)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 3, 4}
	diff := 0
	for i := range dst {
		if dst[i] != want[i] {
			diff++
		}
	}
	if diff != 1 || &d[0] != &dst[0] {
		t.Fatalf("corruption changed %d elements of the caller's buffer, want exactly 1: %v", diff, dst)
	}
	if st := s.Stats(); st.Corruptions != 1 {
		t.Errorf("corruptions = %d, want 1", st.Corruptions)
	}
	d, err = s.TensorInto(0, "w", dst)
	if err != nil || fmt.Sprint(d) != fmt.Sprint(want) {
		t.Fatalf("next access: %v, %v; want clean %v", d, err, want)
	}
}
