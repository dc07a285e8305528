package tensor

import (
	"math"

	"helmsim/internal/parallel"
)

// KVRows is a decoder block's KV cache as attention reads it: rows are
// cached positions, columns the (possibly grouped-query) K/V width.
// Attend calls both methods from several goroutines at once, so an
// implementation must allow concurrent reads between its appends.
type KVRows interface {
	// KRow and VRow return position p's cached K and V rows (read-only).
	KRow(p int) []float32
	VRow(p int) []float32
}

// AttendScratch is Attend's scratch, kept by the caller across calls:
// the score rows of the item ranges a call cuts — one per range, or for
// a prefill on the register tiles six, a block's — and the tiles' panels
// of each KV head's K rows, transposed, and V rows. Each part grows to
// the largest call it has served and is never shrunk, so a caller that
// keeps one allocates only when a call is longer or wider than every one
// before it. The zero value is ready to use; NewAttendScratch sizes the
// score row for a context up front.
type AttendScratch struct {
	// scores is the per-row path's: one row per item range.
	scores Mat
	// tile, kt and v are the tiles', for positions [0, n) of a call, lp
	// = tilePositions(n) wide: six score rows per item range, lp apart;
	// KV head kh's slice of K transposed to hd rows of lp positions
	// (zeros past n) at kt[kh*hd*lp:]; and its slice of V as n rows of
	// hd at v[kh*lp*hd:].
	tile, kt, v []float32
}

// NewAttendScratch returns scratch whose one score row spans maxSeq
// positions, so that a decode step of a context up to maxSeq on one
// worker allocates nothing, from its first step on.
func NewAttendScratch(maxSeq int) AttendScratch {
	return AttendScratch{scores: New(1, maxSeq)}
}

// Attend accumulates into out — zeroed by the caller — the causal
// attention of the query rows q over the cache kv: query row i sits at
// position pos+i and sees cached positions [0, pos+i]. A row of q or
// out is heads slices of q.C/heads; query head h reads K/V head h/group.
// Each (row, head) item is its scores over the visible cache scaled by
// 1/sqrt(head width), a softmax (subtract the running max, exponentiate,
// multiply by 1/sum), and the weighted sum of the V rows.
//
// A call taller than tallGEMMRows on a host with AVX — a prefill — runs
// each head's six-row blocks as two register-tile GEMMs over panels of
// the head's K and V rows (attendBlock); the rows past the last whole
// block, every shorter call and every host without AVX take one item at
// a time (attendItem). Both add each score's and each output element's
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
	items := q.R * heads
	tiled := q.R > tallGEMMRows && wideAccumulate
	units := items
	if tiled {
		// One unit per (block, head) and per (row, head) past the blocks.
		units = (q.R/6 + q.R%6) * heads
	}
	ranges := 1
	if items*n*(q.C/heads) >= minAttendWork {
		ranges = min(units, parallel.MaxChunks())
	}
	kernel := kAttend
	if tiled {
		kernel = kAttendTile
		sc.tiles(kv, n, heads/group*(q.C/heads), q.C/heads, ranges)
	} else if sc.scores.R < ranges || sc.scores.C < n {
		sc.scores = New(max(sc.scores.R, ranges), max(sc.scores.C, n))
	}
	if ranges == 1 || !fork.take() {
		if tiled {
			attendTileRanges(q, kv, pos, heads, group, out, sc, 1, 0, 1)
		} else {
			attendRanges(q, kv, pos, heads, group, out, sc.scores, 1, 0, 1)
		}
		return
	}
	fork.a, fork.out, fork.kv, fork.attn = q, out, kv, sc
	fork.pos, fork.heads, fork.group, fork.ranges = pos, heads, group, ranges
	fork.run(kernel, ranges, 1)
}

// attendRanges runs item ranges [lo, hi) of ranges. Range r takes items
// r, r+ranges, r+2*ranges, ... — under the causal mask later rows see
// more positions, and striding spreads them evenly where contiguous
// blocks would not — and scores them in row r of scores.
func attendRanges(q Mat, kv KVRows, pos, heads, group int, out, scores Mat, ranges, lo, hi int) {
	items := q.R * heads
	for r := lo; r < hi; r++ {
		for item := r; item < items; item += ranges {
			attendItem(q, kv, pos, item/heads, item%heads, heads, group, out, scores.Row(r))
		}
	}
}

// attendItem is query row i's head: scores over the visible cache in the
// range's reusable score row — every s[p] is assigned before it is read,
// so stale values from the previous item never leak — the softmax, and
// the weighted sum of V rows into out.
func attendItem(q Mat, kv KVRows, pos, i, head, heads, group int, out Mat, row []float32) {
	headDim := q.C / heads
	off := head / group * headDim
	s := row[:pos+i+1]
	attendScores(s, q.Row(i)[head*headDim:(head+1)*headDim], kv, off)
	inv := softmax(s, 1/float32(math.Sqrt(float64(headDim))))
	attendValues(out.Row(i)[head*headDim:(head+1)*headDim], s, inv, kv, off)
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

// tiles lays out the tiles' scratch for positions [0, n) of kv and
// ranges item ranges (see AttendScratch): kvDim is the K/V row width, hd
// the head width. Head by head, kt is K transposed, kt[d*lp+p] = K_p[d];
// it is written sixteen positions at a time, so each store fills a cache
// line that the next fifteen positions' stores would otherwise each miss
// on again.
func (sc *AttendScratch) tiles(kv KVRows, n, kvDim, hd, ranges int) {
	lp := tilePositions(n)
	if len(sc.tile) < 6*ranges*lp {
		sc.tile = make([]float32, 6*ranges*lp)
	}
	need := kvDim * lp
	if len(sc.kt) < need {
		sc.kt, sc.v = make([]float32, need), make([]float32, need)
	}
	kt, v := sc.kt[:need], sc.v[:need]
	var rows [16][]float32
	for p0 := 0; p0 < n; p0 += len(rows) {
		m := min(len(rows), n-p0)
		for j := range m {
			rows[j] = kv.KRow(p0 + j)[:kvDim]
			vrow := kv.VRow(p0 + j)[:kvDim]
			for off := 0; off < kvDim; off += hd {
				copy(v[off*lp+(p0+j)*hd:], vrow[off:off+hd])
			}
		}
		for d := 0; d < kvDim; d++ {
			t := kt[d*lp+p0 : d*lp+p0+m]
			for j := range t {
				t[j] = rows[j][d]
			}
		}
	}
	for d := 0; d < kvDim; d++ {
		clear(kt[d*lp+n : (d+1)*lp])
	}
}

// attendTileRanges is attendRanges on the register tiles: range r takes
// units r, r+ranges, ... of the (block, head) units and then the (row,
// head) items of the rows past the last whole block, the blocks in
// score rows [6r, 6r+6) of sc.tile and the items in row 6r.
func attendTileRanges(q Mat, kv KVRows, pos, heads, group int, out Mat, sc *AttendScratch, ranges, lo, hi int) {
	hd := q.C / heads
	lp := tilePositions(pos + q.R)
	blocks := q.R / 6
	units := (blocks + q.R%6) * heads
	for r := lo; r < hi; r++ {
		s := sc.tile[6*r*lp : (6*r+6)*lp]
		for u := r; u < units; u += ranges {
			b, head := u/heads, u%heads
			if b >= blocks {
				attendItem(q, kv, pos, 6*blocks+b-blocks, head, heads, group, out, s[:lp])
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
// panel's row p (rows ld apart), four positions per pass as
// attendValues goes.
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

// attendScores sets s[p] to the dot of qh with position p's K row from
// off, four cached positions per pass as the dense logits' dots go
// (matMulTTile; the packed logits take sixteen table rows per vector on
// AVX-512, which needs the rows' operands side by side — for K rows,
// a transposed page). It and
// attendValues are functions of their own because inlined into
// attendRanges, among its many live values, the dots ran 10-20 % slower
// (BenchmarkAttendSplit).
func attendScores(s, qh []float32, kv KVRows, off int) {
	p := 0
	for ; p+4 <= len(s); p += 4 {
		s[p], s[p+1], s[p+2], s[p+3] = dot4From(0, 0, 0, 0, qh,
			kv.KRow(p)[off:], kv.KRow(p + 1)[off:], kv.KRow(p + 2)[off:], kv.KRow(p + 3)[off:])
	}
	for ; p < len(s); p++ {
		s[p] = dot(qh, kv.KRow(p)[off:])
	}
}

// attendValues adds to dst the V rows from off weighted by s[p]*inv:
// the matmuls' accumulate over four positions at a time, dst[d] still
// adding its terms one by one in ascending p, so the bits are the
// one-position loop's.
func attendValues(dst, s []float32, inv float32, kv KVRows, off int) {
	p := 0
	for ; p+4 <= len(s); p += 4 {
		axpy4(dst, s[p]*inv, s[p+1]*inv, s[p+2]*inv, s[p+3]*inv,
			kv.VRow(p)[off:], kv.VRow(p + 1)[off:], kv.VRow(p + 2)[off:], kv.VRow(p + 3)[off:])
	}
	for ; p < len(s); p++ {
		axpy(dst, s[p]*inv, kv.VRow(p)[off:])
	}
}
