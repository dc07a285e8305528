package kvcache

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"helmsim/internal/model"
)

func poolConfig() model.Config {
	return model.Config{
		Name: "pool-opt", Hidden: 32, Heads: 4, Blocks: 2,
		Vocab: 64, MaxSeq: 256, DTypeBytes: 2,
	}
}

// kAt reads element d of position p's K row through the view's blocks.
func kAt(v *PoolView, p, d int) float32 {
	k, _, stride := v.KBlock(p)
	return k[d*stride]
}

// fillSeq appends n positions of deterministic rows to every block of a
// sequence through its views, the way the engine writes during a step.
func fillSeq(t *testing.T, p *Pool, id, from, n int) {
	t.Helper()
	w := p.cfg.KVWidth()
	for blk := 0; blk < p.cfg.Blocks; blk++ {
		v := p.View(id, blk, from)
		for pos := from; pos < from+n; pos++ {
			kr := make([]float32, w)
			vr := make([]float32, w)
			for i := range kr {
				kr[i] = float32(id*1000 + blk*100 + pos)
				vr[i] = -float32(id*1000 + blk*100 + pos)
			}
			if err := v.AppendRow(kr, vr); err != nil {
				t.Fatalf("append seq %d blk %d pos %d: %v", id, blk, pos, err)
			}
		}
	}
}

func TestPoolLifecycle(t *testing.T) {
	cfg := poolConfig()
	p, err := NewPool(cfg, 8, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := p.Admit(1, []int{5, 6, 7, 8, 9})
	if err != nil || shared != 0 {
		t.Fatalf("admit: shared=%d err=%v", shared, err)
	}
	fillSeq(t, p, 1, 0, 5)
	if err := p.Conserved(); err != nil {
		t.Fatalf("after fill: %v", err)
	}
	if got := p.Stats().FreePages; got != 8-2 {
		t.Fatalf("free pages after 5 tokens of page size 4: got %d, want 6", got)
	}
	// Rows read back exactly as written, across both blocks.
	for blk := 0; blk < cfg.Blocks; blk++ {
		v := p.View(1, blk, 5)
		for pos := 0; pos < 5; pos++ {
			want := float32(1*1000 + blk*100 + pos)
			if got := kAt(v, pos, 0); got != want {
				t.Fatalf("blk %d pos %d K: got %v, want %v", blk, pos, got, want)
			}
			if got := v.VRow(pos)[0]; got != -want {
				t.Fatalf("blk %d pos %d V: got %v, want %v", blk, pos, got, -want)
			}
		}
	}
	if err := p.Release(1); err != nil {
		t.Fatal(err)
	}
	if got := p.FreePages(); got != 8 {
		t.Fatalf("free pages after release: got %d, want 8", got)
	}
	if err := p.Conserved(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolAdmitValidation(t *testing.T) {
	cfg := poolConfig()
	p, err := NewPool(cfg, 4, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(1, nil); err == nil {
		t.Fatal("empty prompt admitted")
	}
	long := make([]int, cfg.MaxSeq+1)
	if _, err := p.Admit(1, long); err == nil {
		t.Fatal("over-long prompt admitted")
	}
	if _, err := p.Admit(1, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(1, []int{1, 2}); err == nil {
		t.Fatal("duplicate ID admitted")
	}
}

func TestPoolTypedReleaseErrors(t *testing.T) {
	cfg := poolConfig()
	p, err := NewPool(cfg, 4, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release(99); !errors.Is(err, ErrUnknownSequence) {
		t.Fatalf("unknown release: got %v, want ErrUnknownSequence", err)
	}
	if _, err := p.Admit(1, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(1); !errors.Is(err, ErrDoubleRelease) {
		t.Fatalf("double release: got %v, want ErrDoubleRelease", err)
	}
	if !p.Poisoned() {
		t.Fatal("pool not poisoned after double release")
	}
	if _, err := p.Admit(2, []int{1}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("admit after poison: got %v, want ErrPoisoned", err)
	}
	if err := p.Conserved(); err != nil {
		t.Fatalf("poisoning must not unbalance the ledger: %v", err)
	}
}

func TestPoolOutOfPages(t *testing.T) {
	cfg := poolConfig()
	p, err := NewPool(cfg, 1, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(1, []int{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	w := cfg.KVWidth()
	kr, vr := make([]float32, w), make([]float32, w)
	v := p.View(1, 0, 0)
	for pos := 0; pos < 4; pos++ {
		if err := v.AppendRow(kr, vr); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.AppendRow(kr, vr); !errors.Is(err, ErrOutOfPages) {
		t.Fatalf("append past budget: got %v, want ErrOutOfPages", err)
	}
	if err := p.Conserved(); err != nil {
		t.Fatalf("failed alloc must not leak: %v", err)
	}
	// Rollback to the committed position returns nothing (page still
	// holds live rows) but a rollback to zero frees it.
	if err := p.Rollback(1, 4); err != nil {
		t.Fatal(err)
	}
	if p.FreePages() != 0 {
		t.Fatal("rollback to live position freed a page")
	}
	if err := p.Rollback(1, 0); err != nil {
		t.Fatal(err)
	}
	if p.FreePages() != 1 {
		t.Fatal("rollback to zero did not free the page")
	}
	if err := p.Conserved(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPrefixReuse: a second prompt sharing a full-page prefix skips
// those positions, reads identical bytes through the shared pages, and
// copy-on-write keeps the original sequence's rows intact when the
// newcomer diverges inside a shared page.
func TestPoolPrefixReuse(t *testing.T) {
	cfg := poolConfig()
	p, err := NewPool(cfg, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{10, 11, 12, 13, 14, 15, 16, 17, 18} // 9 tokens: 2 full pages
	if _, err := p.Admit(1, prompt); err != nil {
		t.Fatal(err)
	}
	fillSeq(t, p, 1, 0, len(prompt))
	if err := p.RegisterPrefix(1); err != nil {
		t.Fatal(err)
	}

	// Same first 8 tokens, divergent tail.
	prompt2 := []int{10, 11, 12, 13, 14, 15, 16, 17, 99, 98}
	shared, err := p.Admit(2, prompt2)
	if err != nil {
		t.Fatal(err)
	}
	if shared != 8 {
		t.Fatalf("shared: got %d, want 8", shared)
	}
	// The shared rows read back as sequence 1 wrote them.
	v := p.View(2, 1, shared)
	for pos := 0; pos < shared; pos++ {
		want := float32(1*1000 + 1*100 + pos)
		if got := kAt(v, pos, 0); got != want {
			t.Fatalf("shared pos %d: got %v, want %v", pos, got, want)
		}
	}
	fillSeq(t, p, 2, shared, len(prompt2)-shared)
	if err := p.Conserved(); err != nil {
		t.Fatal(err)
	}

	// Whole-prompt hit is capped at len(prompt)-1: the engine still
	// recomputes the last position, whose append triggers CoW on the
	// shared page.
	prompt3 := append([]int(nil), prompt[:8]...)
	shared3, err := p.Admit(3, prompt3)
	if err != nil {
		t.Fatal(err)
	}
	if shared3 != 7 {
		t.Fatalf("whole-prompt hit: shared=%d, want 7", shared3)
	}
	cowBefore := p.Stats().CoWCopies
	fillSeq(t, p, 3, shared3, 1)
	if p.Stats().CoWCopies <= cowBefore {
		t.Fatal("write into shared page did not copy-on-write")
	}
	// Sequence 1's row at position 7 is untouched by sequence 3's write.
	if got, want := kAt(p.View(1, 0, 9), 7, 0), float32(1*1000+7); got != want {
		t.Fatalf("CoW leaked into the shared page: got %v, want %v", got, want)
	}
	if err := p.Conserved(); err != nil {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.PrefixLookups != 3 || st.PrefixHits != 2 {
		t.Fatalf("stats: lookups=%d hits=%d, want 3/2", st.PrefixLookups, st.PrefixHits)
	}
}

// TestPoolPrefixSurvivesRelease: the LRU index keeps prefix pages warm
// after the sequence that wrote them is released — the multi-turn-chat
// case — and eviction reclaims them only under pressure.
func TestPoolPrefixSurvivesRelease(t *testing.T) {
	cfg := poolConfig()
	p, err := NewPool(cfg, 4, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := p.Admit(1, prompt); err != nil {
		t.Fatal(err)
	}
	fillSeq(t, p, 1, 0, 8)
	if err := p.RegisterPrefix(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(1); err != nil {
		t.Fatal(err)
	}
	if p.FreePages() != 2 {
		t.Fatalf("index must pin 2 pages: free=%d", p.FreePages())
	}
	shared, err := p.Admit(2, append(append([]int(nil), prompt...), 9))
	if err != nil {
		t.Fatal(err)
	}
	if shared != 8 {
		t.Fatalf("post-release prefix hit: shared=%d, want 8", shared)
	}
	if err := p.Release(2); err != nil {
		t.Fatal(err)
	}

	// Pressure: a 16-token prompt needs all 4 pages; the index entries
	// must be evicted to satisfy it.
	big := make([]int, 16)
	for i := range big {
		big[i] = 100 + i
	}
	if _, err := p.Admit(3, big); err != nil {
		t.Fatal(err)
	}
	fillSeq(t, p, 3, 0, 16)
	if p.Stats().Evictions == 0 {
		t.Fatal("allocation under pressure did not evict the prefix index")
	}
	if err := p.Conserved(); err != nil {
		t.Fatal(err)
	}
}

// poolScript drives a Pool through a deterministic pseudo-random
// interleaving of admissions, appends, rollbacks, releases, and failure
// paths, checking the reconstructed ledger after every operation. It is
// shared by the quick.Check property and the fuzz target.
func poolScript(seed int64, ops int) error {
	cfg := poolConfig()
	p, err := NewPool(cfg, 6, 4, true)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	w := cfg.KVWidth()
	kr, vr := make([]float32, w), make([]float32, w)
	type live struct{ tokens, admitted int }
	seqs := map[int]*live{}
	nextID := 1
	for i := 0; i < ops; i++ {
		switch rng.Intn(6) {
		case 0: // admit
			prompt := make([]int, rng.Intn(10)+1)
			for j := range prompt {
				prompt[j] = rng.Intn(4) // small alphabet → prefix collisions
			}
			shared, err := p.Admit(nextID, prompt)
			if err == nil {
				seqs[nextID] = &live{tokens: shared, admitted: len(prompt)}
				nextID++
			}
		case 1, 2: // append one position to every block of a random live seq
			for id, s := range seqs {
				ok := true
				for blk := 0; blk < cfg.Blocks && ok; blk++ {
					v := p.View(id, blk, s.tokens)
					if err := v.AppendRow(kr, vr); err != nil {
						// Failure mid-fan-out: roll the partial step back.
						if rbErr := p.Rollback(id, s.tokens); rbErr != nil {
							return rbErr
						}
						ok = false
					}
				}
				if ok {
					s.tokens++
					if s.tokens >= s.admitted {
						_ = p.RegisterPrefix(id)
					}
				}
				break
			}
		case 3: // release a random live seq
			for id := range seqs {
				if err := p.Release(id); err != nil {
					return err
				}
				delete(seqs, id)
				break
			}
		case 4: // failure path: release an unknown ID
			if err := p.Release(-7); !errors.Is(err, ErrUnknownSequence) {
				return err
			}
		case 5: // rollback a random live seq to a random earlier point
			for id, s := range seqs {
				n := rng.Intn(s.tokens + 1)
				if err := p.Rollback(id, n); err != nil {
					return err
				}
				if n < s.tokens {
					s.tokens = n
				}
				break
			}
		}
		if err := p.Conserved(); err != nil {
			return err
		}
	}
	return nil
}

// TestPoolLedgerConservationProperty: free + referenced == total and
// per-page refcounts reconstruct exactly, across random interleavings of
// every pool operation including failure paths.
func TestPoolLedgerConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		if err := poolScript(seed, 120); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPoolLedger is the fuzz-driven flavor of the conservation property.
func FuzzPoolLedger(f *testing.F) {
	f.Add(int64(1), 16)
	f.Add(int64(42), 80)
	f.Add(int64(-3), 200)
	f.Fuzz(func(t *testing.T, seed int64, ops int) {
		if ops < 0 {
			ops = -ops
		}
		if ops > 300 {
			ops = ops % 300
		}
		if err := poolScript(seed, ops); err != nil {
			t.Fatalf("seed %d ops %d: %v", seed, ops, err)
		}
	})
}

// K pages are d-major, and copy-on-write and prefix reuse carry them
// whole: rows whose every element differs, written on pages of 20
// positions (a block of sixteen and one of four), read back element by
// element through KBlock — by the writer, by a sequence reusing its
// prefix, and after that sequence's copy-on-write append into a shared
// page, by both — with every block no longer than sixteen positions and
// its rows a page apart.
func TestPoolTransposedKSurvivesCoWAndReuse(t *testing.T) {
	cfg := poolConfig()
	const pt = 20
	p, err := NewPool(cfg, 16, pt, true)
	if err != nil {
		t.Fatal(err)
	}
	w := cfg.KVWidth()
	val := func(id, blk, pos, d int) float32 { return float32(id*100000 + blk*10000 + pos*100 + d) }
	write := func(id, from, n int) {
		for blk := 0; blk < cfg.Blocks; blk++ {
			v := p.View(id, blk, from)
			for pos := from; pos < from+n; pos++ {
				kr, vr := make([]float32, w), make([]float32, w)
				for d := range kr {
					kr[d], vr[d] = val(id, blk, pos, d), -val(id, blk, pos, d)
				}
				if err := v.AppendRow(kr, vr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	check := func(who, id, n int, writer func(pos int) int) {
		t.Helper()
		for blk := 0; blk < cfg.Blocks; blk++ {
			v := p.View(id, blk, n)
			for pos := 0; pos < n; pos++ {
				k, m, stride := v.KBlock(pos)
				if stride != pt || m < 1 || m > 16 || (pos%pt)%16+m > min(16, pt-(pos%pt)/16*16) {
					t.Fatalf("seq %d blk %d pos %d: block of %d positions %d apart", id, blk, pos, m, stride)
				}
				for d := 0; d < w; d++ {
					want := val(writer(pos), blk, pos, d)
					if got := k[d*stride]; got != want {
						t.Fatalf("seq %d (read %d) blk %d pos %d K[%d] = %v, want %v", id, who, blk, pos, d, got, want)
					}
					if got := v.VRow(pos)[d]; got != -want {
						t.Fatalf("seq %d blk %d pos %d V[%d] = %v, want %v", id, blk, pos, d, got, -want)
					}
				}
			}
		}
	}
	prompt := make([]int, 2*pt)
	for i := range prompt {
		prompt[i] = i + 1
	}
	if _, err := p.Admit(1, prompt); err != nil {
		t.Fatal(err)
	}
	write(1, 0, len(prompt))
	if err := p.RegisterPrefix(1); err != nil {
		t.Fatal(err)
	}
	from1 := func(int) int { return 1 }
	check(1, 1, len(prompt), from1)

	// A whole-prompt hit shares both pages and recomputes the last
	// position, whose append copies the second page on write.
	shared, err := p.Admit(2, prompt)
	if err != nil || shared != len(prompt)-1 {
		t.Fatalf("admit: shared %d, %v", shared, err)
	}
	check(2, 2, shared, from1)
	cow := p.Stats().CoWCopies
	write(2, shared, 1)
	if p.Stats().CoWCopies == cow {
		t.Fatal("the append into a shared page did not copy it")
	}
	check(2, 2, len(prompt), func(pos int) int {
		if pos == shared {
			return 2
		}
		return 1
	})
	check(1, 1, len(prompt), from1)
	if err := p.Conserved(); err != nil {
		t.Fatal(err)
	}
}
