package tensor

import "fmt"

// HeadScratch is one worker's buffers for AttentionHead, grown on demand
// and reused across heads and calls: a head's keys transposed (d_k×T) and a
// four-row block of scores (4×T). Its zero value is ready to use; it must
// not be shared between goroutines.
type HeadScratch struct {
	keysT, scores []float32
}

// grown returns buf resliced to n elements, reallocated when too small.
func grown(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// AttentionHead writes one head's causal attention into the t×d_k column
// window ctx: query row i of the t×d_k window q, at absolute position
// base+i with base = T-t, attends to key rows 0..base+i of the T×d_k windows
// keys and values. The result is bit-identical to TransposeCols of keys,
// MatMulACols of q against it, CausalSoftmaxRows with scale and base, then
// ctx = scores·values — each element of the last a sum started at +0 that
// adds every product score·value, rounded, in ascending key order.
//
// The query rows go four at a time through a 4×T block of s: their scores
// over the keys the group's last row sees (Q·Kᵀ through the dense kernel,
// which forms each score exactly as the full product would), the softmax
// row by row, then scores·V over those same keys, through the same kernel.
// A row's masked columns inside the group are written as 0·inv, as
// CausalSoftmaxRows writes them; the columns past the group's bound are
// left out. That drops products
// score·value whose score is 0·inv and whose value row is finite. With a
// finite inv each such product is ±0, and adding ±0 to a sum that started
// at +0 — which is never -0, since only -0 + -0 gives -0 — does not change
// it. With a NaN inv every visible score is NaN too, so the row's outputs
// are NaN either way. When a value row past the bound holds a NaN or ±Inf,
// whose product with 0 is NaN, the masked columns are written out to T and
// the group sums over all T keys, as the full product does.
func AttentionHead(s *HeadScratch, q, keys, values, ctx Cols, scale float32) {
	qw, t := q.window()
	kw, T := keys.window()
	vw, vRows := values.window()
	cw, cRows := ctx.window()
	dk := q.Width
	if keys.Width != dk || values.Width != dk || ctx.Width != dk || vRows != T || cRows != t || t > T {
		panic(fmt.Sprintf("tensor: AttentionHead windows q [%d %d], keys [%d %d], values [%d %d], ctx [%d %d]",
			t, dk, T, keys.Width, vRows, values.Width, cRows, ctx.Width))
	}
	base := T - t
	s.keysT = grown(s.keysT, dk*T)
	s.scores = grown(s.scores, 4*T)
	transposeCols(s.keysT, kw, T, dk)
	keysT := window{data: s.keysT, stride: T}
	blk := window{data: s.scores, stride: T}
	lastBad := lastNonFinite(vw, base+1, T, dk)
	for r0 := 0; r0 < t; r0 += 4 {
		g := min(4, t-r0)
		bound := base + r0 + g // keys the group's last row sees
		mulRows(blk, qw.from(r0), keysT, g, dk, bound)
		n := bound // keys scores·V sums over
		if lastBad >= bound {
			n = T
		}
		for i := 0; i < g; i++ {
			vis := base + r0 + i + 1
			row := blk.row(i, n)
			masked := 0 * softmaxRow(row[:vis], scale)
			for j := vis; j < n; j++ {
				row[j] = masked
			}
		}
		mulRows(cw.from(r0), blk, vw, g, n, dk)
	}
}

// lastNonFinite returns the last of rows [lo, hi) of the w-wide window v
// that holds a NaN or ±Inf, or -1 if none does.
func lastNonFinite(v window, lo, hi, w int) int {
	for p := hi - 1; p >= lo; p-- {
		if hasNonFinite(v.row(p, w)) {
			return p
		}
	}
	return -1
}
