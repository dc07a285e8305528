package kvcache

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"

	"helmsim/internal/model"
	"helmsim/internal/tensor"
)

// Typed ledger errors. "Released twice" (a live double-free — the
// ledger has already been corrupted once) and "never admitted" (a
// caller-side ID mix-up) demand different responses, and the
// prefix-shared pages amplify exactly this class of bug, so the Pool
// distinguishes them and fails stop after a double release.
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

// Pool is the real paged KV cache: block-granular storage of K/V rows
// in fixed-size pages — V a row per position, K d-major (a page's row d
// holds its positions' element d side by side, the layout attention's
// score lanes read, tensor.KVRows) — with a page table per sequence — the
// PagedAttention scheme of vLLM (Kwon et al. [63], discussed in the
// paper's related work) as the engine's actual memory. One
// physical page ID addresses pageTokens rows in every decoder block's
// slab (all blocks of a sequence advance in lockstep, so one page
// table serves them all), memory is committed by actual context
// instead of a worst-case reservation, and pages holding a common
// prompt prefix are refcount-shared between sequences: a new request
// whose prompt starts with an already-cached prefix skips recomputing
// those positions entirely, and copy-on-write preserves isolation if
// it ever has to write into a shared page. Released prefixes stay in
// an LRU index and are evicted only under page pressure, so multi-turn
// chat keeps hitting the cache after the first turn completes.
//
// The Pool is not safe for concurrent use; the continuous batcher owns
// it from a single goroutine.
type Pool struct {
	cfg        model.Config
	width      int // K/V row width (grouped-query aware)
	pageTokens int
	totalPages int
	free       []int   // free page IDs, LIFO
	refs       []int   // per-page reference count (sequences + prefix entries)
	k, v       [][]row // [block][page] -> K [width][pageTokens], V [pageTokens][width]; allocated lazily
	seqs       map[int]*poolSeq
	released   map[int]bool
	poisoned   bool

	prefix  map[string]*list.Element // key -> element holding *prefixEntry
	lru     *list.List               // oldest at front; nil when prefix reuse is off
	entries int

	lookups      int
	hits         int
	sharedTokens int
	cowCopies    int
	evictions    int
}

// row is one page's flat storage: pageTokens x width floats.
type row []float32

// poolSeq is one sequence's page table.
type poolSeq struct {
	prompt []int // the admitted prompt, kept for prefix registration
	pages  []int
	shared int // tokens covered by prefix reuse at admission (stats)
}

// prefixEntry is one registered prompt prefix: the pages holding its
// KV, each holding one reference.
type prefixEntry struct {
	key   string
	pages []int
}

// NewPool builds a paged KV pool of totalPages pages of pageTokens
// positions each. prefixReuse enables the shared-prefix index.
func NewPool(cfg model.Config, totalPages, pageTokens int, prefixReuse bool) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if totalPages <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive page count %d", totalPages)
	}
	if pageTokens <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive page size %d", pageTokens)
	}
	p := &Pool{
		cfg:        cfg,
		width:      cfg.KVWidth(),
		pageTokens: pageTokens,
		totalPages: totalPages,
		free:       make([]int, 0, totalPages),
		refs:       make([]int, totalPages),
		k:          make([][]row, cfg.Blocks),
		v:          make([][]row, cfg.Blocks),
		seqs:       make(map[int]*poolSeq),
		released:   make(map[int]bool),
	}
	for b := range p.k {
		p.k[b] = make([]row, totalPages)
		p.v[b] = make([]row, totalPages)
	}
	// LIFO free list seeded so pages come out 0, 1, 2, ... — allocation
	// order is deterministic and test-friendly.
	for id := totalPages - 1; id >= 0; id-- {
		p.free = append(p.free, id)
	}
	if prefixReuse {
		p.prefix = make(map[string]*list.Element)
		p.lru = list.New()
	}
	return p, nil
}

// DefaultPageTokens is the default page size in tokens: vLLM's, and the
// daemons' and the simulator's.
const DefaultPageTokens = 16

// PagesFor is the page count covering n tokens in pages of pageTokens.
func PagesFor(n, pageTokens int) int {
	if n <= 0 {
		return 0
	}
	return (n + pageTokens - 1) / pageTokens
}

// PagesFor is the page count covering n tokens in the pool's pages.
func (p *Pool) PagesFor(n int) int { return PagesFor(n, p.pageTokens) }

// FreePages reports immediately allocatable pages (not counting what
// evicting cached prefixes could reclaim).
func (p *Pool) FreePages() int { return len(p.free) }

// Len reports admitted sequences.
func (p *Pool) Len() int { return len(p.seqs) }

// prefixKey encodes a token prefix as a map key.
func prefixKey(tokens []int) string {
	b := make([]byte, 8*len(tokens))
	for i, t := range tokens {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(t))
	}
	return string(b)
}

// alloc takes a free page, evicting cached prefixes (oldest first)
// under pressure. The caller owns the page's single reference.
func (p *Pool) alloc() (int, error) {
	for len(p.free) == 0 {
		if !p.evictOldest() {
			return 0, fmt.Errorf("%w: %d pages, all referenced", ErrOutOfPages, p.totalPages)
		}
	}
	id := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.refs[id] = 1
	for b := 0; b < p.cfg.Blocks; b++ {
		if p.k[b][id] == nil {
			p.k[b][id] = make(row, p.pageTokens*p.width)
			p.v[b][id] = make(row, p.pageTokens*p.width)
		}
	}
	return id, nil
}

// deref drops one reference, returning the page to the free list at
// zero.
func (p *Pool) deref(id int) {
	p.refs[id]--
	if p.refs[id] == 0 {
		p.free = append(p.free, id)
	}
}

// evictOldest drops the least-recently-used prefix entry; it reports
// whether an entry was evicted (pages only free if no sequence still
// shares them, so the caller loops).
func (p *Pool) evictOldest() bool {
	if p.lru == nil || p.lru.Len() == 0 {
		return false
	}
	el := p.lru.Front()
	e := el.Value.(*prefixEntry)
	p.lru.Remove(el)
	delete(p.prefix, e.key)
	p.entries--
	for _, pg := range e.pages {
		p.deref(pg)
	}
	p.evictions++
	return true
}

// Admit registers a sequence for the given prompt and returns how many
// leading positions its KV cache already covers via prefix reuse — the
// caller prefills only prompt[shared:]. No pages are allocated for the
// unshared part yet; they are taken lazily as rows are appended.
func (p *Pool) Admit(id int, prompt []int) (shared int, err error) {
	if p.poisoned {
		return 0, fmt.Errorf("%w: refusing to admit sequence %d", ErrPoisoned, id)
	}
	if len(prompt) == 0 {
		return 0, fmt.Errorf("kvcache: empty prompt for sequence %d", id)
	}
	if len(prompt) > p.cfg.MaxSeq {
		return 0, fmt.Errorf("kvcache: prompt length %d exceeds model max sequence %d", len(prompt), p.cfg.MaxSeq)
	}
	if _, ok := p.seqs[id]; ok {
		return 0, fmt.Errorf("kvcache: sequence %d already admitted", id)
	}
	s := &poolSeq{prompt: append([]int(nil), prompt...)}
	if p.prefix != nil {
		p.lookups++
		// Longest registered full-page prefix of this prompt. At least
		// one prompt position must remain to prefill (the engine needs
		// the last position's logits to sample), so a whole-prompt hit
		// leaves the final position to recompute — its append lands in
		// a shared page and copy-on-write takes over.
		for kPages := len(prompt) / p.pageTokens; kPages >= 1; kPages-- {
			el, ok := p.prefix[prefixKey(prompt[:kPages*p.pageTokens])]
			if !ok {
				continue
			}
			e := el.Value.(*prefixEntry)
			s.pages = append(s.pages, e.pages...)
			for _, pg := range e.pages {
				p.refs[pg]++
			}
			shared = kPages * p.pageTokens
			if shared > len(prompt)-1 {
				shared = len(prompt) - 1
			}
			s.shared = shared
			p.hits++
			p.sharedTokens += shared
			p.lru.MoveToBack(el)
			break
		}
	}
	p.seqs[id] = s
	delete(p.released, id)
	return shared, nil
}

// RegisterPrefix publishes a sequence's prompt pages into the prefix
// index (one entry per full-page boundary), so later prompts sharing
// the prefix skip recomputation. Call it once the prompt is fully
// prefilled; it is a no-op when prefix reuse is off.
func (p *Pool) RegisterPrefix(id int) error {
	s, ok := p.seqs[id]
	if !ok {
		return p.unknown(id)
	}
	if p.prefix == nil {
		return nil
	}
	full := len(s.prompt) / p.pageTokens
	if full > len(s.pages) {
		return fmt.Errorf("kvcache: sequence %d has %d pages, prompt needs %d — prefill incomplete", id, len(s.pages), full)
	}
	for kPages := 1; kPages <= full; kPages++ {
		key := prefixKey(s.prompt[:kPages*p.pageTokens])
		if el, ok := p.prefix[key]; ok {
			p.lru.MoveToBack(el)
			continue
		}
		e := &prefixEntry{key: key, pages: append([]int(nil), s.pages[:kPages]...)}
		for _, pg := range e.pages {
			p.refs[pg]++
		}
		p.prefix[key] = p.lru.PushBack(e)
		p.entries++
	}
	return nil
}

// writeRow stores one position's K and V rows for one block,
// allocating the page on a boundary and copying a shared page before
// the first write into it (copy-on-write).
func (p *Pool) writeRow(id, blk, pos int, kRow, vRow []float32) error {
	s, ok := p.seqs[id]
	if !ok {
		return p.unknown(id)
	}
	if pos >= p.cfg.MaxSeq {
		return fmt.Errorf("kvcache: sequence %d position %d exceeds model max sequence %d", id, pos, p.cfg.MaxSeq)
	}
	if len(kRow) != p.width || len(vRow) != p.width {
		return fmt.Errorf("kvcache: sequence %d row width %d/%d, want %d", id, len(kRow), len(vRow), p.width)
	}
	idx, off := pos/p.pageTokens, pos%p.pageTokens
	switch {
	case idx == len(s.pages):
		pg, err := p.alloc()
		if err != nil {
			return err
		}
		s.pages = append(s.pages, pg)
	case idx > len(s.pages):
		return fmt.Errorf("kvcache: sequence %d write at position %d skips pages (%d cached)", id, pos, len(s.pages))
	}
	pg := s.pages[idx]
	if p.refs[pg] > 1 {
		// Copy-on-write: the page is shared (a prefix another sequence
		// or the index still references); writing would corrupt their
		// view. Copy the whole page — for every block, since one physical
		// page spans all block slabs; K's positions interleave row by
		// row — then retarget this sequence's table at the private copy.
		np, err := p.alloc()
		if err != nil {
			return err
		}
		for b := 0; b < p.cfg.Blocks; b++ {
			copy(p.k[b][np], p.k[b][pg])
			copy(p.v[b][np], p.v[b][pg])
		}
		p.deref(pg)
		s.pages[idx] = np
		pg = np
		p.cowCopies++
	}
	k := p.k[blk][pg]
	for d, x := range kRow {
		k[d*p.pageTokens+off] = x
	}
	copy(p.v[blk][pg][off*p.width:(off+1)*p.width], vRow)
	return nil
}

// Rollback trims a sequence's page table to what tokens positions
// need, freeing the tail — the pool half of a failed step's rollback
// (the per-block views truncate their row counts; this returns the
// over-allocated pages).
func (p *Pool) Rollback(id, tokens int) error {
	s, ok := p.seqs[id]
	if !ok {
		return p.unknown(id)
	}
	keep := p.PagesFor(tokens)
	for len(s.pages) > keep {
		pg := s.pages[len(s.pages)-1]
		s.pages = s.pages[:len(s.pages)-1]
		p.deref(pg)
	}
	return nil
}

// Release drops a sequence's references (shared pages survive while
// the prefix index or other sequences hold them). A second Release of
// the same ID poisons the pool: its ledger can no longer be trusted.
func (p *Pool) Release(id int) error {
	s, ok := p.seqs[id]
	if !ok {
		return p.unknown(id)
	}
	for _, pg := range s.pages {
		p.deref(pg)
	}
	delete(p.seqs, id)
	p.released[id] = true
	return nil
}

func (p *Pool) unknown(id int) error {
	if p.released[id] {
		p.poisoned = true
		return fmt.Errorf("%w: sequence %d", ErrDoubleRelease, id)
	}
	return fmt.Errorf("%w: sequence %d", ErrUnknownSequence, id)
}

// Poisoned reports whether a double release has been observed.
func (p *Pool) Poisoned() bool { return p.poisoned }

// View returns one sequence's KV view of one decoder block, rows
// [0, tokens) already valid. It satisfies infer.KVBlock structurally.
// The view holds the sequence's page table, so its reads index it
// directly; a view of an ID not admitted has none — its appends fail as
// unknown, and it must not be read.
func (p *Pool) View(id, blk, tokens int) *PoolView {
	return &PoolView{pool: p, seq: p.seqs[id], id: id, blk: blk, n: tokens}
}

// PoolView is a per-(sequence, block) window into the pool: the
// attention path appends and reads rows through it exactly as it does
// with a private contiguous cache. Each block keeps its own row count
// because blocks advance one after another within a step — mid-step,
// block b is one append ahead of block b+1.
type PoolView struct {
	pool *Pool
	seq  *poolSeq // the page table, retargeted in place by copy-on-write
	id   int
	blk  int
	n    int
}

// AppendRow caches one position's K/V rows (copied into the page).
func (w *PoolView) AppendRow(k, v []float32) error {
	if err := w.pool.writeRow(w.id, w.blk, w.n, k, v); err != nil {
		return err
	}
	w.n++
	return nil
}

// KBlock returns K from position p to the end of its block
// (tensor.KVRows): a page's positions in runs of up to
// tensor.KBlockPositions, rows pageTokens apart.
func (w *PoolView) KBlock(p int) ([]float32, int, int) {
	pt := w.pool.pageTokens
	off := p % pt
	end := min(pt, (off/tensor.KBlockPositions+1)*tensor.KBlockPositions)
	return w.pool.k[w.blk][w.seq.pages[p/pt]][off:], end - off, pt
}

// VRow returns the cached V row of position p.
func (w *PoolView) VRow(p int) []float32 {
	pt, width := w.pool.pageTokens, w.pool.width
	off := p % pt
	return w.pool.v[w.blk][w.seq.pages[p/pt]][off*width : (off+1)*width]
}

// Len reports cached positions.
func (w *PoolView) Len() int { return w.n }

// Truncate discards positions >= n (rollback hook).
func (w *PoolView) Truncate(n int) {
	if n >= 0 && n < w.n {
		w.n = n
	}
}

// PoolStats is a pool snapshot for /statz and benches.
type PoolStats struct {
	TotalPages int `json:"total_pages"`
	FreePages  int `json:"free_pages"`
	Seqs       int `json:"seqs"`
	// PageUtilization is the referenced fraction of the pool.
	PageUtilization float64 `json:"page_utilization"`
	// PrefixLookups/PrefixHits count Admit-time prefix-cache probes;
	// SharedTokens is how many prompt positions those hits skipped.
	PrefixLookups int `json:"prefix_lookups"`
	PrefixHits    int `json:"prefix_hits"`
	SharedTokens  int `json:"shared_tokens"`
	// PrefixEntries is the live index size.
	PrefixEntries int `json:"prefix_entries"`
	CoWCopies     int `json:"cow_copies"`
	Evictions     int `json:"evictions"`
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		TotalPages:      p.totalPages,
		FreePages:       len(p.free),
		Seqs:            len(p.seqs),
		PageUtilization: float64(p.totalPages-len(p.free)) / float64(p.totalPages),
		PrefixLookups:   p.lookups,
		PrefixHits:      p.hits,
		SharedTokens:    p.sharedTokens,
		PrefixEntries:   p.entries,
		CoWCopies:       p.cowCopies,
		Evictions:       p.evictions,
	}
}

// Conserved verifies the page ledger by reconstruction: every page's
// refcount equals the number of sequence tables plus prefix entries
// referencing it, pages with zero references are exactly the free
// list, and free + referenced == total. It returns nil when the ledger
// balances.
func (p *Pool) Conserved() error {
	want := make([]int, p.totalPages)
	for _, s := range p.seqs {
		for _, pg := range s.pages {
			want[pg]++
		}
	}
	if p.lru != nil {
		for el := p.lru.Front(); el != nil; el = el.Next() {
			for _, pg := range el.Value.(*prefixEntry).pages {
				want[pg]++
			}
		}
	}
	onFree := make([]bool, p.totalPages)
	for _, pg := range p.free {
		if pg < 0 || pg >= p.totalPages {
			return fmt.Errorf("kvcache: free list holds invalid page %d", pg)
		}
		if onFree[pg] {
			return fmt.Errorf("kvcache: page %d on the free list twice", pg)
		}
		onFree[pg] = true
	}
	referenced := 0
	for pg := 0; pg < p.totalPages; pg++ {
		if p.refs[pg] != want[pg] {
			return fmt.Errorf("kvcache: page %d refcount %d, reconstruction says %d", pg, p.refs[pg], want[pg])
		}
		if p.refs[pg] == 0 && !onFree[pg] {
			return fmt.Errorf("kvcache: page %d unreferenced but not free", pg)
		}
		if p.refs[pg] > 0 {
			if onFree[pg] {
				return fmt.Errorf("kvcache: page %d referenced %d times but on the free list", pg, p.refs[pg])
			}
			referenced++
		}
	}
	if len(p.free)+referenced != p.totalPages {
		return fmt.Errorf("kvcache: %d free + %d referenced != %d total", len(p.free), referenced, p.totalPages)
	}
	return nil
}
