package infer

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"helmsim/internal/checkpoint"
)

// gateStore blocks each Tensor call until released, so tests can hold a
// reader in flight across a Swap.
type gateStore struct {
	backing WeightStore
	enter   chan struct{} // receives one token per in-flight call
	release chan struct{} // each receive lets one call proceed
}

func newGateStore(backing WeightStore) *gateStore {
	return &gateStore{backing: backing, enter: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateStore) Tensor(layer int, name string) ([]float32, error) {
	g.enter <- struct{}{}
	<-g.release
	return g.backing.Tensor(layer, name)
}

// closeRecorder counts Close calls and can fail them.
type closeRecorder struct {
	mu     sync.Mutex
	closes int
	err    error
}

func (c *closeRecorder) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closes++
	return c.err
}

func (c *closeRecorder) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closes
}

// readPinned reads one tensor the way every reader of a SwappableStore
// does: through an Acquire pin of the current generation, released after
// the read.
func readPinned(s *SwappableStore, layer int, name string) ([]float32, error) {
	w, _, release, err := s.Acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	return w.Tensor(layer, name)
}

func TestSwappableStoreServesAndSwaps(t *testing.T) {
	mc := tinyOPT()
	a, err := RandomWeights(mc, 1, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomWeights(mc, 2, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	ca := &closeRecorder{}
	s, err := NewSwappable(a, ca)
	if err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("initial generation = %d, want 1", g)
	}
	fromA, err := readPinned(s, 0, "w_token")
	if err != nil {
		t.Fatal(err)
	}
	installed, err := s.Swap(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !installed {
		t.Fatal("swap reported not installed")
	}
	if g := s.Generation(); g != 2 {
		t.Fatalf("generation after swap = %d, want 2", g)
	}
	if ca.count() != 1 {
		t.Fatalf("idle old generation closed %d times, want 1 (synchronously on swap)", ca.count())
	}
	fromB, err := readPinned(s, 0, "w_token")
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := b.Tensor(0, "w_token")
	if err != nil {
		t.Fatal(err)
	}
	same := len(fromA) == len(fromB)
	if same {
		for i := range fromB {
			if fromB[i] != wantB[i] {
				t.Fatalf("post-swap read elem %d = %v, want generation B's %v", i, fromB[i], wantB[i])
			}
			if fromB[i] != fromA[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("swap did not change the served weights")
	}
	if _, err := NewSwappable(nil, nil); err == nil {
		t.Error("nil initial store accepted")
	}
	if ok, err := s.Swap(nil, nil); err == nil || ok {
		t.Error("swap to nil store accepted")
	}
}

// The reload contract: the old generation's closer must not run while a
// reader pinned to it is still in flight, and must run exactly once
// right after the last such reader finishes.
func TestSwappableStoreClosesOldGenerationAfterLastReader(t *testing.T) {
	mc := tinyOPT()
	a, err := RandomWeights(mc, 3, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomWeights(mc, 4, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGateStore(a)
	ca := &closeRecorder{}
	s, err := NewSwappable(gate, ca)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := readPinned(s, 0, "w_token")
		done <- err
	}()
	<-gate.enter // reader is pinned to generation A
	if _, err := s.Swap(b, nil); err != nil {
		t.Fatal(err)
	}
	if ca.count() != 0 {
		t.Fatal("old generation closed while a reader was in flight")
	}
	if s.RetiredGenerations() != 0 {
		t.Fatalf("retired = %d with a reader still pinned", s.RetiredGenerations())
	}
	gate.release <- struct{}{} // let the pinned reader finish
	if err := <-done; err != nil {
		t.Fatalf("pinned reader failed: %v", err)
	}
	if ca.count() != 1 {
		t.Fatalf("old generation closed %d times after last reader, want 1", ca.count())
	}
	if s.RetiredGenerations() != 1 {
		t.Fatalf("retired = %d, want 1", s.RetiredGenerations())
	}
}

// Concurrent readers racing a swap and a close: every read either
// succeeds on some generation or fails typed ErrClosed, and each
// generation's closer runs exactly once. Run under -race.
func TestSwappableStoreConcurrentSwapAndClose(t *testing.T) {
	mc := tinyOPT()
	stores := make([]*MemStore, 3)
	closers := make([]*closeRecorder, 3)
	for i := range stores {
		w, err := RandomWeights(mc, int64(10+i), 0.08)
		if err != nil {
			t.Fatal(err)
		}
		stores[i], closers[i] = w, &closeRecorder{}
	}
	s, err := NewSwappable(stores[0], closers[0])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := readPinned(s, 0, "w_token"); err != nil && !errors.Is(err, checkpoint.ErrClosed) {
					errs <- fmt.Errorf("read %d: %w", i, err)
					return
				}
			}
		}()
	}
	for i := 1; i < 3; i++ {
		if _, err := s.Swap(stores[i], closers[i]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, c := range closers {
		if c.count() != 1 {
			t.Errorf("generation %d closed %d times, want exactly 1", i, c.count())
		}
	}
	if _, err := readPinned(s, 0, "w_token"); !errors.Is(err, checkpoint.ErrClosed) {
		t.Errorf("read after Close = %v, want checkpoint.ErrClosed", err)
	}
	if ok, err := s.Swap(stores[0], nil); !errors.Is(err, checkpoint.ErrClosed) || ok {
		t.Errorf("swap after Close = (%v, %v), want checkpoint.ErrClosed and not installed", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// A closer that fails off the swap path (after the last in-flight
// reader) surfaces through DeferredCloseErr; one that fails on the
// synchronous path surfaces from Swap itself.
func TestSwappableStoreCloseErrors(t *testing.T) {
	mc := tinyOPT()
	a, err := RandomWeights(mc, 5, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomWeights(mc, 6, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("close failed")

	// Synchronous path: no readers in flight.
	s, err := NewSwappable(a, &closeRecorder{err: boom})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Swap(b, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("synchronous close error = %v, want %v", err, boom)
	}
	if !ok {
		t.Fatal("failed old close reported the swap as not installed")
	}

	// Deferred path: a pinned reader delays the close past Swap.
	gate := newGateStore(a)
	s2, err := NewSwappable(gate, &closeRecorder{err: boom})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := readPinned(s2, 0, "w_token")
		done <- err
	}()
	<-gate.enter
	if _, err := s2.Swap(b, nil); err != nil {
		t.Fatalf("swap with pinned reader should defer the close error, got %v", err)
	}
	gate.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s2.DeferredCloseErr(); !errors.Is(err, boom) {
		t.Errorf("DeferredCloseErr = %v, want %v", err, boom)
	}
}

// Acquire is the per-reader pin: a store acquired before a swap keeps
// reading — and keeps open — the generation it started on across any
// number of fetches, while a fresh Acquire already reads the new one, and
// the old generation's closer runs only when the pin is released.
func TestSwappableStoreAcquirePinsGeneration(t *testing.T) {
	mc := tinyOPT()
	a, err := RandomWeights(mc, 8, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomWeights(mc, 9, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	ca := &closeRecorder{}
	s, err := NewSwappable(a, ca)
	if err != nil {
		t.Fatal(err)
	}
	pinned, gen, release, err := s.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("acquired generation = %d, want 1", gen)
	}
	if _, err := s.Swap(b, nil); err != nil {
		t.Fatal(err)
	}
	if ca.count() != 0 {
		t.Fatal("old generation closed under an acquired pin")
	}
	wantA, err := a.Tensor(0, "w_token")
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := b.Tensor(0, "w_token")
	if err != nil {
		t.Fatal(err)
	}
	fromPin, err := pinned.Tensor(0, "w_token")
	if err != nil {
		t.Fatalf("pinned read after swap: %v", err)
	}
	fromCur, err := readPinned(s, 0, "w_token")
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantA {
		if fromPin[i] != wantA[i] {
			t.Fatalf("pinned read elem %d = %v, want old generation's %v", i, fromPin[i], wantA[i])
		}
		if fromCur[i] != wantB[i] {
			t.Fatalf("freshly pinned read elem %d = %v, want new generation's %v", i, fromCur[i], wantB[i])
		}
	}
	release()
	if ca.count() != 1 {
		t.Fatalf("old generation closed %d times after release, want 1", ca.count())
	}
	if s.RetiredGenerations() != 1 {
		t.Fatalf("retired = %d after release, want 1", s.RetiredGenerations())
	}
	release() // idempotent
	if ca.count() != 1 {
		t.Fatalf("double release re-ran the closer (%d closes)", ca.count())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Acquire(); !errors.Is(err, checkpoint.ErrClosed) {
		t.Errorf("acquire after Close = %v, want checkpoint.ErrClosed", err)
	}
}

// Generations keep working across hot swaps, and when the checkpoints
// hold identical weights the tokens are identical to a swap-free run —
// the serving daemon's reload-under-traffic guarantee at the store
// level. Each generation pins the checkpoint current when it starts and
// builds its engine over it, as the server's batcher does on a reload,
// while another goroutine swaps as fast as it can.
func TestSwappableStoreHotSwapUnderGeneration(t *testing.T) {
	mc := tinyOPT()
	w, err := RandomWeights(mc, 7, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(mc, w)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3}
	const n = 8
	want, err := ref.Generate(prompt, n)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSwappable(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var swaps int
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Swap(w, nil); err != nil {
				t.Error(err)
				return
			}
			swaps++
		}
	}()
	generate := func() ([]int, error) {
		pinned, _, release, err := s.Acquire()
		if err != nil {
			return nil, err
		}
		defer release()
		eng, err := New(mc, pinned)
		if err != nil {
			return nil, err
		}
		return eng.Generate(prompt, n)
	}
	var got [4][]int
	var genErr error
	for i := range got {
		if got[i], genErr = generate(); genErr != nil {
			break
		}
	}
	close(stop)
	<-swapDone
	if genErr != nil {
		t.Fatalf("generation across %d hot swaps failed: %v", swaps, genErr)
	}
	for g := range got {
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("generation %d: token %d diverged across hot swaps: %v vs %v", g, i, got[g], want)
			}
		}
	}
}

// TestSwappableStoreAcquireReleaseRace races Acquire pins — with
// deliberately doubled, concurrent release calls — against a stream of
// Swaps and a final Close. Release idempotency must hold under -race:
// every retired generation's closer runs exactly once, no matter how
// many times or from how many goroutines a pin is released.
func TestSwappableStoreAcquireReleaseRace(t *testing.T) {
	mc := tinyOPT()
	base, err := RandomWeights(mc, 20, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	closers := []*closeRecorder{{}}
	s, err := NewSwappable(base, closers[0])
	if err != nil {
		t.Fatal(err)
	}

	const nSwaps = 32
	const nReaders = 8
	var wg sync.WaitGroup

	// Readers: acquire, read, then fire the same release from several
	// goroutines at once.
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				pinned, _, release, err := s.Acquire()
				if err != nil {
					return // store closed under us: the race is over
				}
				if _, err := pinned.Tensor(0, "w_token"); err != nil {
					t.Errorf("pinned read failed: %v", err)
				}
				var rwg sync.WaitGroup
				for k := 0; k < 3; k++ {
					rwg.Add(1)
					go func() {
						defer rwg.Done()
						release()
					}()
				}
				rwg.Wait()
				release() // and once more after the burst
			}
		}()
	}

	// Swapper: retire generations under the pins.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nSwaps; i++ {
			w, err := RandomWeights(mc, int64(21+i), 0.08)
			if err != nil {
				t.Errorf("weights %d: %v", i, err)
				return
			}
			c := &closeRecorder{}
			closers = append(closers, c)
			if _, err := s.Swap(w, c); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()

	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range closers {
		if got := c.count(); got != 1 {
			t.Errorf("generation %d closer ran %d times, want exactly 1", i+1, got)
		}
	}
	if got := s.RetiredGenerations(); got != nSwaps+1 {
		t.Errorf("retired generations = %d, want %d", got, nSwaps+1)
	}
	if err := s.DeferredCloseErr(); err != nil {
		t.Errorf("deferred close error: %v", err)
	}
}
