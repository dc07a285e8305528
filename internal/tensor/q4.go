package tensor

import (
	"fmt"

	"helmsim/internal/quant"
)

// q4Tile is the widest run of one weight row the fused kernels decode at
// a time: four rows of it are 4 KiB of stack scratch, so a decoded tile
// is read back from L1 by every activation row instead of being written
// out as an f32 copy of the tensor.
const q4Tile = 256

// q4Run is the decode run for a row of rowLen elements: the most whole
// groups that fit a tile. Zero means the fused kernels cannot tile this
// shape — rows that do not start and end on group boundaries, or groups
// wider than a tile.
func q4Run(w quant.Packed, rowLen int) int {
	gs := w.GroupSize()
	if gs <= 0 || gs > q4Tile || rowLen <= 0 || rowLen%gs != 0 {
		return 0
	}
	return q4Tile / gs * gs
}

// Q4Fusable reports whether MatMulQ4Into and MatMulTQ4Into accept a
// packed tensor whose rows are rowLen elements long — the output width
// for MatMulQ4Into (w is k x cols), the inner dimension for
// MatMulTQ4Into (w is c x k).
func Q4Fusable(w quant.Packed, rowLen int) bool { return q4Run(w, rowLen) > 0 }

// MatMulQ4Into computes a @ W into out for a (r x k) and a packed 4-bit
// W (k x cols) without materializing W. A decode step's few stacked rows
// are decoded in registers (quant.Packed.Gemv, one call per column
// chunk): each weight goes from its nibble to the sums of every row
// without passing through memory — for one row everywhere, and for up
// to tallGEMMRows rows on a host with AVX-512 at a group size of whole
// 16-element blocks. Anything else — taller inputs, other hosts, other
// group sizes — decodes each group-aligned column tile of four k-rows
// once into stack scratch and accumulates it into every row of a from
// there, so one decode is shared by the whole stacked batch. An output
// element still adds its terms one at a time in ascending k through the
// accumulate MatMulInto uses, from weights the dequantizer's own table
// expression produced, so out is bit-identical to
// dequantize-then-MatMulInto whichever path runs. The column split over
// the worker pool is group-aligned. out is fully overwritten and must
// not alias a.
func MatMulQ4Into(a Mat, w quant.Packed, cols int, out Mat) error {
	if cols <= 0 || w.Len() != a.C*cols {
		return fmt.Errorf("tensor: matmulQ4 shape mismatch (%dx%d)@(%d elems as ?x%d)", a.R, a.C, w.Len(), cols)
	}
	if out.R != a.R || out.C != cols {
		return fmt.Errorf("tensor: matmulQ4 output %dx%d for (%dx%d)@(%dx%d)", out.R, out.C, a.R, a.C, a.C, cols)
	}
	run := q4Run(w, cols)
	if run == 0 {
		return fmt.Errorf("tensor: matmulQ4 cannot tile %d columns in groups of %d", cols, w.GroupSize())
	}
	clear(out.Data)
	if a.R*a.C*cols < minParallelFlops || !fork.take() {
		matMulQ4Tile(a, w, cols, run, out, 0, cols)
		return nil
	}
	fork.a, fork.w, fork.cols, fork.tile, fork.out = a, w, cols, run, out
	gs := w.GroupSize()
	fork.run(kMatMulQ4, cols/gs, shareGrain(cols/gs, (minColTile+gs-1)/gs))
	return nil
}

// matMulQ4Tile accumulates output columns [clo, chi). One row of a, or
// up to tallGEMMRows rows where w.GemvStacked() holds (quant's AVX-512
// body, at the group sizes it covers), is one quant.Packed.Gemv call
// over the whole chunk: each weight is decoded in registers where it is
// multiplied — there once for up to four rows — and every output
// element still adds its terms in ascending k with axpy4's roundings,
// so the bits are the scratch path's. Otherwise the chunk goes run
// columns at a time: decode four k-rows of the run into stack scratch,
// then matMulTile's four-k pass over every row of a, two rows at a time
// like matMulTile's. That scratch path is the SSE2 level's stacked
// body: without AVX-512 one in-register GEMV per row loses to it about
// twice over from five rows up (EXPERIMENTS.md, "stacked steps in
// registers").
func matMulQ4Tile(a Mat, w quant.Packed, cols, run int, out Mat, clo, chi int) {
	if a.R == 1 || a.R <= tallGEMMRows && w.GemvStacked() {
		w.Gemv(out.Data[clo:(a.R-1)*cols+chi], cols, a.Data[:a.R*a.C], a.C, clo, cols)
		return
	}
	var scratch [4 * q4Tile]float32
	for c0 := clo; c0 < chi; c0 += run {
		c1 := min(c0+run, chi)
		n := c1 - c0
		b0, b1, b2, b3 := scratch[:n], scratch[q4Tile:][:n], scratch[2*q4Tile:][:n], scratch[3*q4Tile:][:n]
		k := 0
		for ; k+4 <= a.C; k += 4 {
			w.DecodeRange(b0, k*cols+c0)
			w.DecodeRange(b1, (k+1)*cols+c0)
			w.DecodeRange(b2, (k+2)*cols+c0)
			w.DecodeRange(b3, (k+3)*cols+c0)
			i := 0
			for ; i+2 <= a.R; i += 2 {
				axpy4x2(out.Row(i)[c0:c1], out.Row(i + 1)[c0:c1], a.Row(i)[k:k+4], a.Row(i + 1)[k:k+4], b0, b1, b2, b3)
			}
			if i < a.R {
				arow := a.Row(i)
				axpy4(out.Row(i)[c0:c1], arow[k], arow[k+1], arow[k+2], arow[k+3], b0, b1, b2, b3)
			}
		}
		for ; k < a.C; k++ {
			w.DecodeRange(b0, k*cols+c0)
			for i := 0; i < a.R; i++ {
				axpy(out.Row(i)[c0:c1], a.Row(i)[k], b0)
			}
		}
	}
}

// MatMulTQ4Into computes a @ Wᵀ into out for a (r x k) and a packed
// 4-bit W (c x k) — logits against a packed token table. Each output is
// the one ascending-k chain MatMulTInto computes, bit for bit, from the
// dequantizer's weights; matMulTQ4Tile says how. The split over the
// worker pool is over blocks of sixteen table rows. out is fully
// overwritten and must not alias a.
func MatMulTQ4Into(a Mat, w quant.Packed, out Mat) error {
	if a.C <= 0 || w.Len() != out.C*a.C {
		return fmt.Errorf("tensor: matmulTQ4 shape mismatch (%dx%d)@(%d elems as %dx?)T", a.R, a.C, w.Len(), out.C)
	}
	if out.R != a.R {
		return fmt.Errorf("tensor: matmulTQ4 output %dx%d for %d input rows", out.R, out.C, a.R)
	}
	run := q4Run(w, a.C)
	if run == 0 {
		return fmt.Errorf("tensor: matmulTQ4 cannot tile rows of %d in groups of %d", a.C, w.GroupSize())
	}
	clear(out.Data)
	if a.R*a.C*out.C < minParallelFlops || !fork.take() {
		matMulTQ4Tile(a, w, run, out, 0, out.C)
		return nil
	}
	fork.a, fork.w, fork.tile, fork.out = a, w, run, out
	blocks := (out.C + quant.GemvTRows - 1) / quant.GemvTRows
	fork.run(kMatMulTQ4, blocks, minColTile/quant.GemvTRows)
	return nil
}

// matMulTQ4Tile fills output columns [jlo, jhi) — table rows. out
// arrives zeroed: the sums start there. Where w.GemvTWide() holds
// (quant's AVX-512 body, at the group sizes it covers), each whole
// block of sixteen table rows is one quant.Packed.GemvT call: one lane
// per table row, each weight decoded in a register once for every row
// of a, every logit its own ascending-k chain. The rows past the last
// whole block, and every row elsewhere, go four at a time like
// matMulTTile: four table rows are decoded a run of k at a time into
// stack scratch and dotted against every row of a, a dot taken in runs
// continuing from its partial sum in out. Either way each output adds
// dotFrom's terms in dotFrom's order with its roundings, so the bits
// are MatMulTInto's.
func matMulTQ4Tile(a Mat, w quant.Packed, run int, out Mat, jlo, jhi int) {
	j := jlo
	if w.GemvTWide() {
		for ; j+quant.GemvTRows <= jhi; j += quant.GemvTRows {
			w.GemvT(out.Data[j:], out.C, a.Data[:a.R*a.C], a.C, j)
		}
	}
	var scratch [4 * q4Tile]float32
	for ; j+4 <= jhi; j += 4 {
		for k0 := 0; k0 < a.C; k0 += run {
			n := min(run, a.C-k0)
			y0, y1, y2, y3 := scratch[:n], scratch[q4Tile:][:n], scratch[2*q4Tile:][:n], scratch[3*q4Tile:][:n]
			w.DecodeRange(y0, j*a.C+k0)
			w.DecodeRange(y1, (j+1)*a.C+k0)
			w.DecodeRange(y2, (j+2)*a.C+k0)
			w.DecodeRange(y3, (j+3)*a.C+k0)
			for i := 0; i < a.R; i++ {
				o := out.Row(i)[j : j+4 : j+4]
				o[0], o[1], o[2], o[3] = dot4From(o[0], o[1], o[2], o[3], a.Row(i)[k0:k0+n], y0, y1, y2, y3)
			}
		}
	}
	for ; j < jhi; j++ {
		for k0 := 0; k0 < a.C; k0 += run {
			n := min(run, a.C-k0)
			y := scratch[:n]
			w.DecodeRange(y, j*a.C+k0)
			for i := 0; i < a.R; i++ {
				o := out.Row(i)
				o[j] = dotFrom(o[j], a.Row(i)[k0:k0+n], y)
			}
		}
	}
}
