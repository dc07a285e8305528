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

// Attend accumulates into out — zeroed by the caller — the causal
// attention of the query rows q over the cache kv: query row i sits at
// position pos+i and sees cached positions [0, pos+i]. A row of q or
// out is heads slices of q.C/heads; query head h reads K/V head h/group.
// Each (row, head) item is its scores over the visible cache scaled by
// 1/sqrt(head width), a softmax (subtract the running max, exponentiate,
// multiply by 1/sum), and the weighted sum of the V rows.
//
// scores is the caller's scratch, kept across calls: one row per item
// range, grown here to the ranges a call cuts and to pos+q.R positions,
// so a caller that sizes it to its longest context allocates only when
// the worker count first grows.
//
// The items are split over the worker pool from minAttendWork up. An item
// accumulates into its own slice of out and touches no other, so which
// goroutine runs which range cannot change a bit of it.
func Attend(q Mat, kv KVRows, pos, heads, group int, out Mat, scores *Mat) {
	items := q.R * heads
	ranges := 1
	if items*(pos+q.R)*(q.C/heads) >= minAttendWork {
		ranges = min(items, parallel.MaxChunks())
	}
	if scores.R < ranges || scores.C < pos+q.R {
		*scores = New(max(scores.R, ranges), max(scores.C, pos+q.R))
	}
	if ranges == 1 || !fork.take() {
		attendRanges(q, kv, pos, heads, group, out, *scores, 1, 0, 1)
		return
	}
	fork.a, fork.out, fork.b, fork.kv = q, out, *scores, kv
	fork.pos, fork.heads, fork.group, fork.ranges = pos, heads, group, ranges
	fork.run(kAttend, ranges, 1)
}

// attendRanges runs item ranges [lo, hi) of ranges. Range r takes items
// r, r+ranges, r+2*ranges, ... — under the causal mask later rows see
// more positions, and striding spreads them evenly where contiguous
// blocks would not — and scores them in row r of scores.
func attendRanges(q Mat, kv KVRows, pos, heads, group int, out, scores Mat, ranges, lo, hi int) {
	headDim := q.C / heads
	scale := 1 / float32(math.Sqrt(float64(headDim)))
	items := q.R * heads
	for r := lo; r < hi; r++ {
		row := scores.Row(r)
		for item := r; item < items; item += ranges {
			i, head := item/heads, item%heads
			off := head / group * headDim
			// Scores over the visible cache, in the range's reusable score
			// row: every s[p] is assigned before it is read, so stale
			// values from the previous item never leak.
			s := row[:pos+i+1]
			attendScores(s, q.Row(i)[head*headDim:(head+1)*headDim], kv, off)
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
			inv := float32(1)
			if sum > 0 {
				inv = 1 / sum
			}
			attendValues(out.Row(i)[head*headDim:(head+1)*headDim], s, inv, kv, off)
		}
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
