package tensor

import (
	"fmt"

	"repro/internal/cpufeat"
	"repro/internal/threadpool"
)

// useAVX2 selects the assembly kernels of mulRows and transposeCols
// (matmul_amd64.s). It is set once from CPUID; tests flip it to compare the
// two paths. The Go loops are the reference and the path on every other CPU
// and architecture.
var useAVX2 = cpufeat.AVX2

// MatMul computes C = A·B for rank-2 tensors A (m×k) and B (k×n) into a new
// tensor, parallelizing over rows of A with `width` workers from pool. Pass
// pool == nil (or width <= 1) for a serial computation.
//
// Each element is a sum started at +0 that adds its products in ascending
// p, over contiguous rows of B. See mulRows for the register blocking and
// product.run for when the pool is used.
func MatMul(pool *threadpool.Pool, width int, a, b *Tensor) *Tensor {
	m, k, n := checkMatMulShapes(a, b)
	c := New(m, n)
	product{dense(a), dense(b), dense(c), m, k, n}.run(pool, width)
	return c
}

// MatMulInto is MatMul writing into a preallocated m×n destination,
// overwriting its contents.
func MatMulInto(pool *threadpool.Pool, width int, a, b, c *Tensor) {
	m, k, n := checkMatMulShapes(a, b)
	if c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto destination shape %v, want [%d %d]", c.Shape(), m, n))
	}
	product{dense(a), dense(b), dense(c), m, k, n}.run(pool, width)
}

func checkMatMulShapes(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul on ranks %d and %d, want 2 and 2", a.Rank(), b.Rank()))
	}
	m, k = a.Dim(0), a.Dim(1)
	if b.Dim(0) != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions %d and %d differ", k, b.Dim(0)))
	}
	return m, k, b.Dim(1)
}

// Cols is the column window [Off, Off+Width) of every row of the rank-2
// tensor T, read or written in place — one attention head's slice of Q, K,
// V or of the attention output, without copying it out.
type Cols struct {
	T          *Tensor
	Off, Width int
}

// window checks c against its tensor and returns its element addressing.
func (c Cols) window() (w window, rows int) {
	if c.T.Rank() != 2 || c.Off < 0 || c.Width <= 0 || c.Off+c.Width > c.T.Dim(1) {
		panic(fmt.Sprintf("tensor: column window [%d, %d) of shape %v", c.Off, c.Off+c.Width, c.T.Shape()))
	}
	return window{data: c.T.data, off: c.Off, stride: c.T.Dim(1)}, c.T.Dim(0)
}

// MatMulACols writes A·B into c (m×n), overwriting it, where A is the m×k
// column window a and B the k×n tensor b — attention scores Q_h·K_hᵀ read
// out of Q in place, against one head's keys transposed by TransposeCols.
// Every element is computed exactly as MatMul computes it.
//
// Each element is then also exactly the dot product MatMulT forms: both
// kernels start it from +0 and add the products in ascending p, each
// product and each sum rounded once.
func MatMulACols(pool *threadpool.Pool, width int, a Cols, b, c *Tensor) {
	aw, m := a.window()
	k := a.Width
	if b.Rank() != 2 || b.Dim(0) != k || c.Rank() != 2 || c.Dim(0) != m || c.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulACols shapes [%d %d] · %v -> %v", m, k, b.Shape(), c.Shape()))
	}
	product{aw, dense(b), dense(c), m, k, b.Dim(1)}.run(pool, width)
}

// TransposeCols writes the transpose of the rows×w column window src into
// the w×rows tensor dst — one head's keys, laid out so that MatMulACols
// streams them as rows.
func TransposeCols(dst *Tensor, src Cols) {
	sw, rows := src.window()
	w := src.Width
	if dst.Rank() != 2 || dst.Dim(0) != w || dst.Dim(1) != rows {
		panic(fmt.Sprintf("tensor: TransposeCols of [%d %d] into %v", rows, w, dst.Shape()))
	}
	transposeCols(dst.data, sw, rows, w)
}

// transposeCols writes the transpose of the rows×w window sw into d, row q
// of the transpose at d[q*rows:].
func transposeCols(d []float32, sw window, rows, w int) {
	p := 0 // columns the assembly loop covers
	if r := rows &^ 7; useAVX2 && r > 0 {
		for ; p+8 <= w; p += 8 {
			// The block's last source and destination elements.
			_ = sw.row(r-1, p+8)
			_ = d[(p+7)*rows+r-1]
			transpose8AVX2(&d[p*rows], rows, &sw.data[sw.off+p], sw.stride, r)
		}
	}
	// Eight source rows at a time: each destination row then receives an
	// eight-element run, and the few lines read and written stay cached —
	// a row-at-a-time scatter strides every write by the key count.
	r := 0
	for ; r+8 <= rows; r += 8 {
		s0, s1, s2, s3 := sw.row(r, w), sw.row(r+1, w), sw.row(r+2, w), sw.row(r+3, w)
		s4, s5, s6, s7 := sw.row(r+4, w), sw.row(r+5, w), sw.row(r+6, w), sw.row(r+7, w)
		for q := p; q < w; q++ {
			o := d[q*rows+r : q*rows+r+8 : q*rows+r+8]
			o[0], o[1], o[2], o[3] = s0[q], s1[q], s2[q], s3[q]
			o[4], o[5], o[6], o[7] = s4[q], s5[q], s6[q], s7[q]
		}
	}
	for ; r < rows; r++ {
		for q, v := range sw.row(r, w) {
			d[q*rows+r] = v
		}
	}
}

// window addresses an m×n block of a row-major matrix in place: element
// (i, j) is data[off+i*stride+j]. Whole tensors and column windows are both
// windows, so one kernel serves both without copying.
type window struct {
	data        []float32
	off, stride int
}

// row returns the first n elements of row i, capped so that no append or
// reslice can reach the elements after them.
func (w window) row(i, n int) []float32 {
	s := w.off + i*w.stride
	return w.data[s : s+n : s+n]
}

// from returns the window's rows from i on.
func (w window) from(i int) window {
	w.off += i * w.stride
	return w
}

// dense addresses the whole of the rank-2 tensor t.
func dense(t *Tensor) window { return window{data: t.data, stride: t.Dim(1)} }

// at returns the address of element (i, j).
func (w window) at(i, j int) *float32 { return &w.data[w.off+i*w.stride+j] }

// product is one C = A·B over windows: A is m×k, B is k×n, C is m×n and is
// overwritten.
type product struct {
	a, b, c window
	m, k, n int
}

// parallelGrain is the fewest multiply-adds a product must hold before run
// splits it over the pool. Below it a second worker saves less than the
// dispatch costs, and on a busy host its goroutine can wait a scheduler
// time slice. BenchmarkMatMulShapes' width rows put width 2 at 1.18× the
// serial time for 8×128×384 (0.39M multiply-adds), 0.99× at 16×128×384
// (0.79M), 0.84× at 32×128×384 (1.6M) and 0.69× at 64×128×512 (4.2M) on
// an idle 2-vCPU Xeon. Tests zero it to split every product.
var parallelGrain = 1 << 20

// run computes the product serially, or split over width pool workers in
// blocks of four rows, so that every worker runs whole register tiles; rows
// are independent, so the split never changes a result.
func (g product) run(pool *threadpool.Pool, width int) {
	tiles := (g.m + 3) / 4
	if pool == nil || width <= 1 || tiles <= 1 || g.m*g.k*g.n < parallelGrain {
		mulRows(g.c, g.a, g.b, g.m, g.k, g.n)
		return
	}
	par := g // only the parallel path's copy escapes to the heap
	pool.ParallelRange(tiles, width, par.tiles)
}

// tiles computes rows [4·lo, 4·hi) of C, the last block cut at m.
func (g *product) tiles(lo, hi int) {
	lo, hi = 4*lo, min(4*hi, g.m)
	mulRows(g.c.from(lo), g.a.from(lo), g.b, hi-lo, g.k, g.n)
}

// mulRows sets the m×n window c to A·B, A being the m×k window a and B the
// k×n window b: each element a sum started at +0 that adds its products,
// each rounded, in ascending p. There is no zero-skip, so a zero in A
// against a NaN or ±Inf in B gives NaN, as IEEE 754 says.
//
// With AVX2 and n ≥ 16, each block of four rows × 16 columns keeps its
// sums in registers across all of k (tile4x16AVX2), and the last one to
// three rows take the one-row kernels, 64 columns at a time when n ≥ 64
// (row1x64AVX2) and 16 otherwise (row1x16AVX2). When the block width does
// not divide n, the last block ends at column n and overlaps the one
// before it; the overlapped elements are computed again, to the same bits.
// Each lane performs mulRowGo's operations. The Go loop is the reference,
// and the path for products narrower than 16 columns.
func mulRows(c, a, b window, m, k, n int) {
	if !useAVX2 || m == 0 || k == 0 || n < 16 {
		for i := 0; i < m; i++ {
			mulRowGo(c.row(i, n), a.row(i, k), b)
		}
		return
	}
	// Every row the kernels read or write.
	_ = c.row(m-1, n)
	_ = a.row(m-1, k)
	_ = b.row(k-1, n)
	full := m &^ 3 // rows the four-row tiles cover
	for j := 0; j < n; j += 16 {
		j := min(j, n-16)
		for i := 0; i < full; i += 4 {
			tile4x16AVX2(c.at(i, j), c.stride, a.at(i, 0), a.stride, b.at(0, j), b.stride, k)
		}
	}
	w := 16 // the one-row kernels' block width
	if n >= 64 {
		w = 64
	}
	for i := full; i < m; i++ {
		for j := 0; j < n; j += w {
			j := min(j, n-w)
			if w == 64 {
				row1x64AVX2(c.at(i, j), a.at(i, 0), b.at(0, j), b.stride, k)
			} else {
				row1x16AVX2(c.at(i, j), a.at(i, 0), b.at(0, j), b.stride, k)
			}
		}
	}
}

// mulRowGo sets o to arow·B, B being the first len(o) columns of the rows
// of b. It takes eight rows of B per pass and holds each output element in
// a register across them: every element still starts at +0 and receives
// its products one at a time in ascending p — the additions and their
// order are those of a one-row-at-a-time loop — but o[j] is loaded and
// stored once per eight products instead of once per product.
func mulRowGo(o, arow []float32, b window) {
	n := len(o)
	clear(o)
	p := 0
	for ; p+8 <= len(arow); p += 8 {
		a := arow[p : p+8 : p+8]
		a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
		b0, b1, b2, b3 := b.row(p, n)[:n], b.row(p+1, n)[:n], b.row(p+2, n)[:n], b.row(p+3, n)[:n]
		b4, b5, b6, b7 := b.row(p+4, n)[:n], b.row(p+5, n)[:n], b.row(p+6, n)[:n], b.row(p+7, n)[:n]
		for j := range o {
			s := o[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			s += a4 * b4[j]
			s += a5 * b5[j]
			s += a6 * b6[j]
			s += a7 * b7[j]
			o[j] = s
		}
	}
	for ; p < len(arow); p++ {
		av, br := arow[p], b.row(p, n)[:n]
		for j := range o {
			o[j] += av * br[j]
		}
	}
}

// isNonFinite reports NaN or ±Inf: v-v is zero for every finite v and NaN
// otherwise, and a NaN comparison against zero is unequal.
func isNonFinite(v float32) bool { return v-v != 0 }

func hasNonFinite(xs []float32) bool {
	for _, v := range xs {
		if isNonFinite(v) {
			return true
		}
	}
	return false
}

// MatMulT computes C = A·Bᵀ for A (m×k) and B (n×k). This is the natural
// layout for attention scores Q·Kᵀ where both operands are stored row-major
// per token.
func MatMulT(pool *threadpool.Pool, width int, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulT on ranks %d and %d, want 2 and 2", a.Rank(), b.Rank()))
	}
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(0)
	if b.Dim(1) != k {
		panic(fmt.Sprintf("tensor: MatMulT inner dimensions %d and %d differ", k, b.Dim(1)))
	}
	c := New(m, n)
	productT{
		a: dense(a), b: dense(b), c: dense(c),
		m: m, k: k, n: n,
	}.run(pool, width)
	return c
}

// productT is one C = A·Bᵀ over windows: A is m×k, B is n×k, C is m×n.
type productT struct {
	a, b, c window
	m, k, n int
}

func (g productT) run(pool *threadpool.Pool, width int) {
	if pool == nil || width <= 1 || g.m <= 1 {
		g.rows(0, g.m)
		return
	}
	par := g // only the parallel path's copy escapes to the heap
	pool.ParallelRange(g.m, width, par.rows)
}

// rows computes each element as one dot product accumulated from +0 in
// ascending p. Four elements of a row run side by side, each in its own
// accumulator, so their dependency chains overlap without changing any
// element's additions.
func (g *productT) rows(lo, hi int) {
	k, n := g.k, g.n
	for i := lo; i < hi; i++ {
		arow := g.a.row(i, k)
		crow := g.c.row(i, n)
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := g.b.row(j, k)[:len(arow)]
			b1 := g.b.row(j+1, k)[:len(arow)]
			b2 := g.b.row(j+2, k)[:len(arow)]
			b3 := g.b.row(j+3, k)[:len(arow)]
			var s0, s1, s2, s3 float32
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := g.b.row(j, k)[:len(arow)]
			var sum float32
			for p, av := range arow {
				sum += av * brow[p]
			}
			crow[j] = sum
		}
	}
}

// Transpose2D returns a copied transpose of a rank-2 tensor.
func Transpose2D(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D on rank-%d tensor", t.Rank()))
	}
	m, n := t.Dim(0), t.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j*m+i] = v
		}
	}
	return out
}
