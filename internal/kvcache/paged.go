package kvcache

import (
	"errors"
	"fmt"

	"helmsim/internal/model"
	"helmsim/internal/units"
)

// Typed ledger errors. Release failures used to share one message,
// which hid refcount bugs: "released twice" (a live double-free — the
// ledger has already been corrupted once) and "never admitted" (a
// caller-side ID mix-up) demand different responses. The prefix-shared
// pages of the real Pool amplify exactly this class of bug, so both
// allocators now distinguish them and fail stop after a double release.
var (
	// ErrUnknownSequence marks an operation on an ID that was never
	// admitted (or whose admission predates this allocator).
	ErrUnknownSequence = errors.New("kvcache: sequence never admitted")
	// ErrDoubleRelease marks a second Release of the same admitted ID —
	// evidence of a refcount bug in the caller.
	ErrDoubleRelease = errors.New("kvcache: sequence already released")
	// ErrPoisoned marks an allocator that observed a double release:
	// its ledger can no longer be trusted, so further admissions are
	// refused (fail stop beats silently corrupt accounting).
	ErrPoisoned = errors.New("kvcache: ledger poisoned by a double release")
	// ErrOutOfPages marks an allocation that found no free page. The
	// continuous batcher keys its preempt-and-requeue policy off it.
	ErrOutOfPages = errors.New("kvcache: out of pages")
)

// PagedCache manages the KV cache at block granularity, the
// PagedAttention scheme of vLLM (Kwon et al. [63], discussed in the
// paper's related work): each prompt holds a list of fixed-size pages and
// grows one token at a time, so memory is committed by actual context
// instead of the worst-case reservation FlexGen makes. The paper's All-CPU
// analysis reserves prompt+generation up front; this allocator quantifies
// the batching headroom block-granular management adds on top. (It is the
// accounting model only — Pool is the variant that actually stores K/V
// rows.)
type PagedCache struct {
	cfg        model.Config
	pageTokens int
	pageBytes  units.Bytes
	totalPages int
	freePages  int
	seqs       map[int]*pagedSeq
	released   map[int]bool
	poisoned   bool
}

// pagedSeq is one prompt's page state.
type pagedSeq struct {
	pages  int
	tokens int
}

// NewPagedCache sizes a paged allocator over a byte budget with the given
// page granularity (tokens per page, vLLM defaults to 16).
func NewPagedCache(cfg model.Config, budget units.Bytes, pageTokens int) (*PagedCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("kvcache: negative budget %d", budget)
	}
	if pageTokens <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive page size %d", pageTokens)
	}
	pageBytes := cfg.KVBytesPerPromptPerBlock(pageTokens) * units.Bytes(cfg.Blocks)
	if pageBytes <= 0 {
		return nil, fmt.Errorf("kvcache: degenerate page size")
	}
	total := int(budget / pageBytes)
	return &PagedCache{
		cfg:        cfg,
		pageTokens: pageTokens,
		pageBytes:  pageBytes,
		totalPages: total,
		freePages:  total,
		seqs:       make(map[int]*pagedSeq),
		released:   make(map[int]bool),
	}, nil
}

// pagesFor is the page count covering n tokens.
func (p *PagedCache) pagesFor(n int) int {
	return (n + p.pageTokens - 1) / p.pageTokens
}

// Admit allocates pages for a prompt's initial context. Inputs are
// validated up front: a context longer than the model's maximum
// sequence length is rejected before any accounting happens, and a
// poisoned ledger refuses all admissions.
func (p *PagedCache) Admit(promptID, tokens int) error {
	if p.poisoned {
		return fmt.Errorf("%w: refusing to admit prompt %d", ErrPoisoned, promptID)
	}
	if tokens <= 0 {
		return fmt.Errorf("kvcache: non-positive context %d", tokens)
	}
	if tokens > p.cfg.MaxSeq {
		return fmt.Errorf("kvcache: context %d exceeds model max sequence %d", tokens, p.cfg.MaxSeq)
	}
	if _, ok := p.seqs[promptID]; ok {
		return fmt.Errorf("kvcache: prompt %d already admitted", promptID)
	}
	need := p.pagesFor(tokens)
	if need > p.freePages {
		return fmt.Errorf("%w: admitting prompt %d (%d needed, %d free)", ErrOutOfPages, promptID, need, p.freePages)
	}
	p.freePages -= need
	p.seqs[promptID] = &pagedSeq{pages: need, tokens: tokens}
	// Re-admitting a previously released ID is legitimate reuse.
	delete(p.released, promptID)
	return nil
}

// Append grows one prompt by a token, taking a fresh page on a boundary.
// Growth past the model's maximum sequence length is rejected.
func (p *PagedCache) Append(promptID int) error {
	s, ok := p.seqs[promptID]
	if !ok {
		return p.unknown(promptID)
	}
	if s.tokens+1 > p.cfg.MaxSeq {
		return fmt.Errorf("kvcache: prompt %d context %d exceeds model max sequence %d", promptID, s.tokens+1, p.cfg.MaxSeq)
	}
	if need := p.pagesFor(s.tokens + 1); need > s.pages {
		if p.freePages == 0 {
			return fmt.Errorf("%w: extending prompt %d", ErrOutOfPages, promptID)
		}
		p.freePages--
		s.pages++
	}
	s.tokens++
	return nil
}

// Release frees a prompt's pages. A second Release of the same ID is a
// double free: it returns ErrDoubleRelease and poisons the ledger so
// later admissions fail instead of accounting against corrupt state.
func (p *PagedCache) Release(promptID int) error {
	s, ok := p.seqs[promptID]
	if !ok {
		return p.unknown(promptID)
	}
	p.freePages += s.pages
	delete(p.seqs, promptID)
	p.released[promptID] = true
	return nil
}

// unknown classifies a miss: an ID released before now is a double
// release (and poisons the ledger); anything else was never admitted.
func (p *PagedCache) unknown(promptID int) error {
	if p.released[promptID] {
		p.poisoned = true
		return fmt.Errorf("%w: prompt %d", ErrDoubleRelease, promptID)
	}
	return fmt.Errorf("%w: prompt %d", ErrUnknownSequence, promptID)
}

// Conserved reports whether the page ledger balances: free pages plus
// every admitted prompt's pages must equal the total, exactly. It holds
// by construction after every successful or failed operation.
func (p *PagedCache) Conserved() bool {
	held := 0
	for _, s := range p.seqs {
		held += s.pages
	}
	return p.freePages >= 0 && p.freePages+held == p.totalPages
}

// Poisoned reports whether a double release has been observed.
func (p *PagedCache) Poisoned() bool { return p.poisoned }

// Len reports admitted prompts.
func (p *PagedCache) Len() int { return len(p.seqs) }

// FreePages reports unallocated pages.
func (p *PagedCache) FreePages() int { return p.freePages }

// TotalPages reports the budget in pages.
func (p *PagedCache) TotalPages() int { return p.totalPages }

// UsedBytes reports the committed cache bytes.
func (p *PagedCache) UsedBytes() units.Bytes {
	return units.Bytes(p.totalPages-p.freePages) * p.pageBytes
}

// InternalFragmentation reports the fraction of allocated page slots not
// backing a real token — the waste block-granular allocation trades for
// flexibility. Zero when nothing is allocated.
func (p *PagedCache) InternalFragmentation() float64 {
	var slots, used int
	for _, s := range p.seqs {
		slots += s.pages * p.pageTokens
		used += s.tokens
	}
	if slots == 0 {
		return 0
	}
	return float64(slots-used) / float64(slots)
}
