package tensor

import (
	"fmt"

	"repro/internal/threadpool"
)

// QMat is a read-only view of a rank-2 group-wise quantized matrix
// (Eq. 10/11). The packed format stays inside internal/quant, which imports
// this package: the view carries only the logical shape and the func that
// reconstructs the matrix (quant.DequantizeInto), so MatMulQ can consume it
// without an import cycle.
type QMat struct {
	Rows int // logical row count
	Cols int // logical column count
	// Dequantize writes the Rows×Cols reconstruction into dst, row-major,
	// spreading the work over pool up to width workers.
	Dequantize func(pool *threadpool.Pool, width int, dst []float32)
}

// MatMulQ computes C = A·B where B is quantized (k×n): it dequantizes B into
// one k×n scratch tensor and multiplies, so it is MatMul(pool, width, a,
// Dequantize(b)) by construction, bit for bit.
func MatMulQ(pool *threadpool.Pool, width int, a *Tensor, b QMat) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulQ on rank %d, want 2", a.Rank()))
	}
	if b.Rows != a.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulQ inner dimensions %d and %d differ", a.Dim(1), b.Rows))
	}
	scratch := New(b.Rows, b.Cols)
	b.Dequantize(pool, width, scratch.data)
	return MatMul(pool, width, a, scratch)
}
