package kvcache

import (
	"testing"
	"testing/quick"

	"helmsim/internal/model"
	"helmsim/internal/units"
)

func pagedFor(t *testing.T, budgetGB int) *PagedCache {
	t.Helper()
	p, err := NewPagedCache(model.OPT175B(), units.Bytes(budgetGB)*units.GB, 16)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPagedCacheValidation(t *testing.T) {
	if _, err := NewPagedCache(model.Config{}, units.GB, 16); err == nil {
		t.Errorf("invalid config accepted")
	}
	if _, err := NewPagedCache(model.OPT175B(), -1, 16); err == nil {
		t.Errorf("negative budget accepted")
	}
	if _, err := NewPagedCache(model.OPT175B(), units.GB, 0); err == nil {
		t.Errorf("zero page size accepted")
	}
}

func TestPagedLifecycle(t *testing.T) {
	p := pagedFor(t, 30)
	if err := p.Admit(1, 128); err != nil {
		t.Fatal(err)
	}
	// 128 tokens at page size 16 = exactly 8 pages.
	if used := p.TotalPages() - p.FreePages(); used != 8 {
		t.Errorf("pages used = %d, want 8", used)
	}
	// No waste on an exact boundary.
	if f := p.InternalFragmentation(); f != 0 {
		t.Errorf("fragmentation = %v on exact fit", f)
	}
	// One more token takes a fresh page with 15 wasted slots.
	if err := p.Append(1); err != nil {
		t.Fatal(err)
	}
	if used := p.TotalPages() - p.FreePages(); used != 9 {
		t.Errorf("pages used = %d after append, want 9", used)
	}
	if f := p.InternalFragmentation(); f <= 0 || f > 15.0/144 {
		t.Errorf("fragmentation = %v, want (0, 15/144]", f)
	}
	// 15 more appends stay within the same page.
	for i := 0; i < 15; i++ {
		if err := p.Append(1); err != nil {
			t.Fatal(err)
		}
	}
	if used := p.TotalPages() - p.FreePages(); used != 9 {
		t.Errorf("pages used = %d after filling the page, want 9", used)
	}
	if err := p.Release(1); err != nil {
		t.Fatal(err)
	}
	if p.FreePages() != p.TotalPages() || p.Len() != 0 || p.UsedBytes() != 0 {
		t.Errorf("release did not return pages")
	}
	// Error paths.
	if err := p.Admit(2, 0); err == nil {
		t.Errorf("zero-token admit accepted")
	}
	if err := p.Append(42); err == nil {
		t.Errorf("unknown append accepted")
	}
	if err := p.Release(42); err == nil {
		t.Errorf("unknown release accepted")
	}
	if err := p.Admit(3, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.Admit(3, 10); err == nil {
		t.Errorf("duplicate admit accepted")
	}
}

func TestPagedExhaustion(t *testing.T) {
	// A tiny budget: enough for one page only.
	cfg := model.OPT175B()
	page := cfg.KVBytesPerPromptPerBlock(16) * units.Bytes(cfg.Blocks)
	p, err := NewPagedCache(cfg, page, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := p.Append(1); err == nil {
		t.Errorf("append beyond the budget accepted")
	}
	if err := p.Admit(2, 1); err == nil {
		t.Errorf("admit beyond the budget accepted")
	}
}

// PagedAttention's headroom (related work [63]): at admission, paged
// allocation commits only the prompt's pages, so it admits ~16% more
// OPT-175B prompts than the contiguous prompt+generation reservation
// (128 vs 149 tokens committed).
func TestPagedAdmitsMoreThanReservation(t *testing.T) {
	cfg := model.OPT175B()
	budget := 33 * units.GB
	p, err := NewPagedCache(cfg, budget, 16)
	if err != nil {
		t.Fatal(err)
	}
	paged := 0
	for p.Admit(paged, 128) == nil {
		paged++
	}
	reserve := int(budget / PerPromptBytes(cfg, 128, 21))
	if paged <= reserve {
		t.Errorf("paged admits %d, reservation %d — paged should admit more", paged, reserve)
	}
	if float64(paged)/float64(reserve) > 1.35 {
		t.Errorf("paged headroom %.2fx implausibly large", float64(paged)/float64(reserve))
	}
	if !p.Conserved() {
		t.Errorf("page ledger unbalanced after filling the budget")
	}
	if err := p.Admit(paged, 0); err == nil {
		t.Errorf("zero prompt length accepted")
	}
}

// Property: pages never leak — after any admit/append/release sequence,
// releasing the survivors restores every page.
func TestPagedConservationProperty(t *testing.T) {
	cfg := model.OPT1B3()
	f := func(ops []uint8) bool {
		p, err := NewPagedCache(cfg, 2*units.GB, 16)
		if err != nil {
			return false
		}
		live := map[int]bool{}
		for i, op := range ops {
			id := i % 8
			switch op % 3 {
			case 0:
				if !live[id] && p.Admit(id, int(op)%40+1) == nil {
					live[id] = true
				}
			case 1:
				if live[id] {
					_ = p.Append(id)
				}
			case 2:
				if live[id] {
					if p.Release(id) != nil {
						return false
					}
					delete(live, id)
				}
			}
			if p.FreePages() < 0 || p.FreePages() > p.TotalPages() {
				return false
			}
			if f := p.InternalFragmentation(); f < 0 || f >= 1 {
				return false
			}
		}
		for id := range live {
			if p.Release(id) != nil {
				return false
			}
		}
		return p.FreePages() == p.TotalPages() && p.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
