package tensor

import (
	"math"

	"helmsim/internal/parallel"
)

// KVRows is a decoder block's KV cache as attention reads it. K comes in
// blocks of up to KBlockPositions consecutive positions stored d-major —
// a block's row d holds its positions' element d side by side, so
// sixteen positions' scores are one vector's lanes — and V in rows, one
// per position. Attend calls both methods from several goroutines at
// once, so an implementation must allow concurrent reads between its
// appends.
type KVRows interface {
	// KBlock returns K from position p to the end of p's block: n
	// positions, 1 <= n <= KBlockPositions, position p+j's element d at
	// k[d*stride+j] for every d of the K/V width, stride >= n. Every
	// block of one cache has the same stride. A block may hold positions
	// past the cached ones; a reader takes only those it knows are
	// cached. The values are read-only.
	KBlock(p int) (k []float32, n, stride int)
	// VRow returns position p's cached V row (read-only).
	VRow(p int) []float32
}

// KBlockPositions is the most positions one K block holds: sixteen
// float32 lanes, one ZMM register.
const KBlockPositions = 16

// kBlock is one K block of a call's cache as the score bodies read it:
// positions [p0, p0+n) from k[0], each d-major row stride apart, and
// mask = 1<<n - 1, the AVX-512 body's lanes. The assembly reads the
// fields at fixed offsets (kernels_amd64.s): k's data pointer at 0, n at
// 32, mask at 40, 48 bytes an entry.
type kBlock struct {
	k           []float32
	p0, n, mask int
}

// AttendScratch is Attend's scratch, kept by the caller across calls:
// the call's cache gathered once — K's blocks and V's rows — the score
// rows of the item ranges a call cuts — one per range, or for a prefill
// on the register tiles six, a block's — and the tiles' panels of each
// KV head's K rows, transposed, and V rows. Each part grows to the
// largest call it has served and is never shrunk, so a caller that
// keeps one allocates only when a call is longer or wider than every one
// before it. The zero value is ready to use; NewAttendScratch sizes the
// score row and the gathered cache for a context up front.
type AttendScratch struct {
	// blocks are K's blocks over the call's positions, padded with empty
	// ones to a whole number of fours (the AVX-512 body's group); nb of
	// them are real, stride apart row to row. vrows are V's rows, one
	// per position. Both are written before the call forks and only read
	// after.
	blocks     []kBlock
	nb, stride int
	vrows      [][]float32
	// scores is the per-row path's: one row per item range.
	scores Mat
	// tile, kt and v are the tiles', for positions [0, n) of a call, lp
	// = tilePositions(n) wide: six score rows per item range, lp apart;
	// KV head kh's slice of K transposed to hd rows of lp positions
	// (zeros past n) at kt[kh*hd*lp:]; and its slice of V as n rows of
	// hd at v[kh*lp*hd:].
	tile, kt, v []float32
}

// NewAttendScratch returns scratch whose one score row and gathered
// cache span maxSeq positions in blocks of KBlockPositions, so that a
// decode step of a context up to maxSeq on one worker allocates nothing,
// from its first step on.
func NewAttendScratch(maxSeq int) AttendScratch {
	return AttendScratch{
		blocks: make([]kBlock, 0, (maxSeq+KBlockPositions-1)/KBlockPositions+4),
		vrows:  make([][]float32, 0, maxSeq),
		scores: New(1, maxSeq),
	}
}

// Attend accumulates into out — zeroed by the caller — the causal
// attention of the query rows q over the cache kv: query row i sits at
// position pos+i and sees cached positions [0, pos+i]. A row of q or
// out is heads slices of q.C/heads; query head h reads K/V head h/group.
// Each (row, head) item is its scores over the visible cache scaled by
// 1/sqrt(head width), a softmax (subtract the running max, exponentiate,
// multiply by 1/sum), and the weighted sum of the V rows.
//
// The cache is gathered once per call (gather), before any fork. A call
// taller than tallGEMMRows on a host with AVX — a prefill — copies each
// KV head's K blocks and V rows into panels and runs each head's six-row
// blocks as two register-tile GEMMs over them (attendBlock); the rows
// past the last whole block, every shorter call — every decode step —
// and every host without AVX take one item at a time (attendItem), on
// the lanes of the host's widest attention body (attendScores,
// attendValues). All of them add each score's and each output element's
// terms in ascending order with the roundings of the per-position loop,
// so which one runs changes no bit.
//
// sc is the caller's scratch (see AttendScratch).
//
// The work is split over the worker pool from minAttendWork up. An item
// or block accumulates into its own slices of out and touches no other,
// so which goroutine runs which range cannot change a bit of it.
func Attend(q Mat, kv KVRows, pos, heads, group int, out Mat, sc *AttendScratch) {
	n := pos + q.R
	hd := q.C / heads
	kvHeads := heads / group
	sc.gather(kv, n, kvHeads*hd)
	items := q.R * heads
	tiled := q.R > tallGEMMRows && wideAccumulate
	units := items
	if tiled {
		// One unit per (block, head) and per (row, head) past the blocks.
		units = (q.R/6 + q.R%6) * heads
	}
	ranges := 1
	if items*n*hd >= minAttendWork {
		ranges = min(units, parallel.MaxChunks())
	}
	kernel := kAttend
	if tiled {
		kernel = kAttendTile
		sc.tiles(n, kvHeads*hd, ranges)
		for kh := range kvHeads {
			sc.panels(kh, hd, n)
		}
	} else if sc.scores.R < ranges || sc.scores.C < n {
		sc.scores = New(max(sc.scores.R, ranges), max(sc.scores.C, n))
	}
	if ranges == 1 || !fork.take() {
		if tiled {
			attendTileRanges(q, pos, heads, group, out, sc, 1, 0, 1)
		} else {
			attendRanges(q, sc, pos, heads, group, out, 1, 0, 1)
		}
		return
	}
	fork.a, fork.out, fork.attn = q, out, sc
	fork.pos, fork.heads, fork.group, fork.ranges = pos, heads, group, ranges
	fork.run(kernel, ranges, 1)
}

// gather reads positions [0, n) of kv into the scratch: K's blocks, each
// cut at n and checked to hold its kvDim rows, padded with empty blocks
// to a whole number of fours, and V's rows cut to kvDim. A block that
// breaks KBlock's contract panics here, before any body reads it.
func (sc *AttendScratch) gather(kv KVRows, n, kvDim int) {
	sc.blocks, sc.stride = sc.blocks[:0], 0
	for p := 0; p < n; {
		k, m, stride := kv.KBlock(p)
		m = min(m, n-p)
		if m < 1 || m > KBlockPositions || stride < m || (sc.stride != 0 && stride != sc.stride) || len(k) < (kvDim-1)*stride+m {
			panic("tensor: KBlock broke its contract")
		}
		sc.stride = stride
		sc.blocks = append(sc.blocks, kBlock{k: k, p0: p, n: m, mask: 1<<m - 1})
		p += m
	}
	sc.nb = len(sc.blocks)
	for sc.nb > 0 && len(sc.blocks)%4 != 0 {
		sc.blocks = append(sc.blocks, kBlock{k: sc.blocks[0].k})
	}
	sc.vrows = sc.vrows[:0]
	for p := range n {
		sc.vrows = append(sc.vrows, kv.VRow(p)[:kvDim])
	}
}

// attendRanges runs item ranges [lo, hi) of ranges. Range r takes items
// r, r+ranges, r+2*ranges, ... — under the causal mask later rows see
// more positions, and striding spreads them evenly where contiguous
// blocks would not — and scores them in row r of the scratch's scores.
func attendRanges(q Mat, sc *AttendScratch, pos, heads, group int, out Mat, ranges, lo, hi int) {
	items := q.R * heads
	for r := lo; r < hi; r++ {
		for item := r; item < items; item += ranges {
			attendItem(q, sc, pos, item/heads, item%heads, heads, group, out, sc.scores.Row(r))
		}
	}
}

// attendItem is query row i's head: scores over the visible cache in the
// range's reusable score row — every s[p] is assigned before it is read,
// so stale values from the previous item never leak — the softmax, its
// weights w[p] = s[p]*inv stored rounded in place, and the weighted sum
// of V rows into out.
func attendItem(q Mat, sc *AttendScratch, pos, i, head, heads, group int, out Mat, row []float32) {
	hd := q.C / heads
	off := head / group * hd
	s := row[:pos+i+1]
	attendScores(s, q.Row(i)[head*hd:(head+1)*hd], sc.blocks, sc.nb, sc.stride, off)
	inv := softmax(s, 1/float32(math.Sqrt(float64(hd))))
	for p := range s {
		s[p] *= inv
	}
	attendValues(out.Row(i)[head*hd:(head+1)*hd], s, sc.vrows[:len(s)], off)
}

// softmax scales s in place, finds the running max, exponentiates the
// differences (expShift) and returns 1/sum — 1 where the sum is not
// positive. The weights are s[p]*inv.
func softmax(s []float32, scale float32) float32 {
	maxS := float32(math.Inf(-1))
	for p, v := range s {
		v *= scale
		s[p] = v
		if v > maxS {
			maxS = v
		}
	}
	expShift(s, maxS)
	var sum float32
	for _, ev := range s {
		sum += ev
	}
	if sum > 0 {
		return 1 / sum
	}
	return 1
}

// tilePositions is the panel width for n positions: n rounded up to the
// widest tile, so that every tile of QKᵀ reads whole panel columns.
func tilePositions(n int) int { return (n + 31) &^ 31 }

// tiles sizes the tiles' scratch for positions [0, n) and ranges item
// ranges (see AttendScratch); kvDim is the K/V row width.
func (sc *AttendScratch) tiles(n, kvDim, ranges int) {
	lp := tilePositions(n)
	if len(sc.tile) < 6*ranges*lp {
		sc.tile = make([]float32, 6*ranges*lp)
	}
	if need := kvDim * lp; len(sc.kt) < need {
		sc.kt, sc.v = make([]float32, need), make([]float32, need)
	}
}

// panels fills KV head kh's panels from the gathered cache of n
// positions: its hd rows of K, kt[d*lp+p] = K_p[d] with zeros past n,
// copied a block row at a time — the blocks are d-major already, so
// nothing is transposed — and its n rows of V.
func (sc *AttendScratch) panels(kh, hd, n int) {
	lp := tilePositions(n)
	off := kh * hd
	kt, v := sc.kt[off*lp:(off+hd)*lp], sc.v[off*lp:(off+hd)*lp]
	for _, b := range sc.blocks[:sc.nb] {
		for d := range hd {
			copy(kt[d*lp+b.p0:d*lp+b.p0+b.n], b.k[(off+d)*sc.stride:])
		}
	}
	for d := range hd {
		clear(kt[d*lp+n : (d+1)*lp])
	}
	for p, row := range sc.vrows {
		copy(v[p*hd:(p+1)*hd], row[off:off+hd])
	}
}

// attendTileRanges is attendRanges on the register tiles: range r takes
// units r, r+ranges, ... of the (block, head) units and then the (row,
// head) items of the rows past the last whole block, the blocks in
// score rows [6r, 6r+6) of sc.tile and the items in row 6r.
func attendTileRanges(q Mat, pos, heads, group int, out Mat, sc *AttendScratch, ranges, lo, hi int) {
	hd := q.C / heads
	lp := tilePositions(pos + q.R)
	blocks := q.R / 6
	units := (blocks + q.R%6) * heads
	for r := lo; r < hi; r++ {
		s := sc.tile[6*r*lp : (6*r+6)*lp]
		for u := r; u < units; u += ranges {
			b, head := u/heads, u%heads
			if b >= blocks {
				attendItem(q, sc, pos, 6*blocks+b-blocks, head, heads, group, out, s[:lp])
				continue
			}
			off := head / group * hd
			attendBlock(q, 6*b, head*hd, hd, pos, sc.kt[off*lp:(off+hd)*lp], sc.v[off*lp:(off+hd)*lp], out, s, lp)
		}
	}
}

// attendBlock runs query rows [i0, i0+6) of the head whose columns start
// at col, hd wide, as two GEMMs on the register tiles. QKᵀ: A is the
// head's slice of q in place, B the transposed K panel kt (hd rows lp
// apart), into the six score rows of s (lp apart), over the panel
// columns the block's last row can see; a row's columns past its own
// limit are computed and never read. Then each row's softmax, and its
// weights w[p] = s[p]*inv, rounded as attendValues rounds them. PV: A is
// the weights, B the V panel v (rows hd apart), into out in place, over
// the positions all six rows see; each row's own later positions then
// continue the same chains one position at a time, and the columns past
// the last whole tile take all of theirs that way. No weight past a
// row's causal limit is ever multiplied, so a NaN or Inf V row it cannot
// see leaves its output alone, as in the per-position loop.
func attendBlock(q Mat, i0, col, hd, pos int, kt, v []float32, out Mat, s []float32, lp int) {
	shared := pos + i0 + 1
	pw := panelWidth()
	cols := (shared + 5 + pw - 1) / pw * pw
	for r := 0; r < 6; r++ {
		clear(s[r*lp : r*lp+cols])
	}
	a := q.Data[i0*q.C+col:]
	for c := 0; c < cols; c += pw {
		if pw == 32 {
			tile6x32(s[c:], lp, a, q.C, kt[c:], lp, hd)
		} else {
			tile6x16(s[c:], lp, a, q.C, kt[c:], lp, hd)
		}
	}
	scale := 1 / float32(math.Sqrt(float64(hd)))
	for r := 0; r < 6; r++ {
		w := s[r*lp : r*lp+shared+r]
		inv := softmax(w, scale)
		for p := range w {
			w[p] *= inv
		}
	}
	o := out.Data[i0*out.C+col:]
	c := 0
	if wide512 {
		for ; c+32 <= hd; c += 32 {
			tile6x32(o[c:], out.C, s, lp, v[c:], hd, shared)
		}
	}
	for ; c+16 <= hd; c += 16 {
		tile6x16(o[c:], out.C, s, lp, v[c:], hd, shared)
	}
	for r := 0; r < 6; r++ {
		w := s[r*lp : r*lp+shared+r]
		dst := out.Row(i0 + r)[col : col+hd]
		panelValues(dst[:c], w, shared, v, hd)
		panelValues(dst[c:], w, 0, v[c:], hd)
	}
}

// panelValues adds to dst, in ascending p from p0, w[p] times the V
// panel's row p (rows ld apart), four positions per pass (axpy4), each
// element's terms still one by one.
func panelValues(dst, w []float32, p0 int, v []float32, ld int) {
	if len(dst) == 0 {
		return
	}
	p := p0
	for ; p+4 <= len(w); p += 4 {
		axpy4(dst, w[p], w[p+1], w[p+2], w[p+3], v[p*ld:], v[(p+1)*ld:], v[(p+2)*ld:], v[(p+3)*ld:])
	}
	for ; p < len(w); p++ {
		axpy(dst, w[p], v[p*ld:])
	}
}

// expShiftRef is softmax's exponentials, s[p] = exp(s[p]-shift) with the
// difference taken in float32: the Go twin of expShiftAVX (see geluRef).
func expShiftRef(s []float32, shift float32) {
	for p, v := range s {
		s[p] = float32(math.Exp(float64(v - shift)))
	}
}

// attendBody is the vector level of the decode attention bodies.
type attendBody uint8

const (
	attendTwin attendBody = iota // the Go twins (scoreBlockRef, valuesRef)
	attendSSE2                   // scoresSSE, valuesSSE
	attend512                    // scoresAVX512, valuesAVX512
)

// scoreBlockRef sets the scores of positions [from, m) of block b: the
// Go twin of the score bodies, one ascending-d chain per position.
func scoreBlockRef(s, qh []float32, b kBlock, stride, off, from, m int) {
	for j := from; j < m; j++ {
		var t float32
		for d, x := range qh {
			t += float32(x * b.k[(off+d)*stride+j])
		}
		s[b.p0+j] = t
	}
}

// valuesRef is the Go twin of the value bodies: columns [from, len(dst))
// of dst, each one ascending-p chain.
func valuesRef(dst, w []float32, vrows [][]float32, off, from int) {
	for d := from; d < len(dst); d++ {
		t := dst[d]
		for p, wp := range w {
			t += float32(wp * vrows[p][off+d])
		}
		dst[d] = t
	}
}
