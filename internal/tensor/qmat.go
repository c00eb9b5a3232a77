package tensor

import (
	"fmt"

	"repro/internal/threadpool"
)

// QMat is a read-only view of a rank-2 matrix in the packed group-wise
// quantized form of internal/quant (Eq. 10/11): bit-packed codes over the
// flat row-major element stream, with per-group min and scale. It lives in
// this package — rather than quant, which imports tensor — so the fused
// kernel MatMulQ can consume packed blocks directly without an import cycle.
//
// MatMulQ dequantizes per cache-blocked tile into a small scratch panel
// instead of materializing the whole float32 matrix, and is bit-identical
// to dequantize-then-MatMul on the same packed payload: it uses the exact
// Eq. 11 arithmetic per element, accumulates each output in a single
// register/slot in ascending inner-dimension order, and preserves the
// reference kernel's zero-skip semantics (see skipFlags).
type QMat struct {
	Packed    []byte    // bit-packed codes, Bits per element, flat row-major
	Mins      []float32 // per-group minimum
	Scales    []float32 // per-group range (max - min); 0 collapses to Mins
	Bits      int       // code width in [1, 8]
	GroupSize int       // elements per group along the flat stream
	Rows      int       // logical row count
	Cols      int       // logical column count
}

func (q QMat) check() {
	if q.Bits < 1 || q.Bits > 8 || q.GroupSize <= 0 || q.Rows < 0 || q.Cols < 0 {
		panic(fmt.Sprintf("tensor: invalid QMat geometry bits=%d group=%d shape=[%d %d]",
			q.Bits, q.GroupSize, q.Rows, q.Cols))
	}
}

// dequantFlat reconstructs flat elements [start, start+count) of the packed
// stream into dst[:count], walking group chunks so every value uses its own
// group's parameters. The arithmetic is exactly quant.Dequantize's Eq. 11:
// float32(code)/levels*scale + min, with a degenerate (zero-range) group
// collapsing to its minimum — bit-for-bit, so fused kernels reproduce the
// dequantize-then-matmul reference exactly.
func (q QMat) dequantFlat(dst []float32, start, count int) {
	levels := float32(int(1)<<q.Bits - 1)
	pos, end, di := start, start+count, 0
	for pos < end {
		g := pos / q.GroupSize
		chunk := (g + 1) * q.GroupSize
		if chunk > end {
			chunk = end
		}
		mn, scale := q.Mins[g], q.Scales[g]
		n := chunk - pos
		switch {
		case scale == 0:
			for i := 0; i < n; i++ {
				dst[di+i] = mn
			}
		case q.Bits == 4:
			// Nibble fast path for the FlexGen default: codes never straddle
			// a byte boundary.
			for i := 0; i < n; i++ {
				bp := (pos + i) * 4
				c := (q.Packed[bp>>3] >> (bp & 7)) & 0xF
				dst[di+i] = float32(c)/levels*scale + mn
			}
		case q.Bits == 8:
			for i := 0; i < n; i++ {
				dst[di+i] = float32(q.Packed[pos+i])/levels*scale + mn
			}
		default:
			// General path, mirroring quant.unpackBits: a code may straddle
			// two bytes.
			mask := uint16(1)<<q.Bits - 1
			for i := 0; i < n; i++ {
				bitPos := (pos + i) * q.Bits
				byteIdx := bitPos >> 3
				shift := bitPos & 7
				v := uint16(q.Packed[byteIdx]) >> shift
				if shift+q.Bits > 8 && byteIdx+1 < len(q.Packed) {
					v |= uint16(q.Packed[byteIdx+1]) << (8 - shift)
				}
				dst[di+i] = float32(uint8(v&mask))/levels*scale + mn
			}
		}
		di += n
		pos = chunk
	}
}

// MatMulQ computes C = A·B where B is packed (k×n). It is bit-identical to
// MatMul(pool, width, a, Dequantize(b)) but never materializes the float32
// B: each worker dequantizes one KC×NC tile at a time into a scratch panel
// (tile shape chosen by the cachesim-driven tuner, see TileFor) and streams
// A against it. Workers split the column tiles, so their C segments are
// disjoint and the parallel result matches the serial one exactly.
func MatMulQ(pool *threadpool.Pool, width int, a *Tensor, b QMat) *Tensor {
	b.check()
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulQ on rank %d, want 2", a.Rank()))
	}
	m, k := a.Dim(0), a.Dim(1)
	if b.Rows != k {
		panic(fmt.Sprintf("tensor: MatMulQ inner dimensions %d and %d differ", k, b.Rows))
	}
	n := b.Cols
	c := New(m, n)
	tile := TileFor(k, n)
	numJT := (n + tile.NC - 1) / tile.NC
	az := hasZero(a.data)
	kernel := func(lo, hi int) {
		panel := make([]float32, tile.KC*tile.NC)
		var flags []bool
		if az {
			flags = make([]bool, tile.KC)
		}
		for jt := lo; jt < hi; jt++ {
			jlo := jt * tile.NC
			jhi := jlo + tile.NC
			if jhi > n {
				jhi = n
			}
			tw := jhi - jlo
			for plo := 0; plo < k; plo += tile.KC {
				phi := plo + tile.KC
				if phi > k {
					phi = k
				}
				for p := plo; p < phi; p++ {
					row := panel[(p-plo)*tw : (p-plo+1)*tw]
					b.dequantFlat(row, p*n+jlo, tw)
					if az {
						flags[p-plo] = hasNonFinite(row)
					}
				}
				// The dense kernel on top of the panel, with flags in
				// skipFlags' role for the panel's rows.
				bw := window{data: panel, stride: tw}
				for i := 0; i < m; i++ {
					accumRow(c.data[i*n+jlo:i*n+jhi], a.data[i*k+plo:i*k+phi], bw, flags)
				}
			}
		}
	}
	if pool == nil || width <= 1 {
		kernel(0, numJT)
		return c
	}
	pool.ParallelRange(numJT, width, kernel)
	return c
}
