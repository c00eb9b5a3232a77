package quant

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// QMat returns the matrix view tensor.MatMulQ consumes: q's shape and a
// func that dequantizes q through DequantizeInto. The view reads q's
// storage; callers verify the tensor's checksum before computing from it,
// exactly as they would before dequantizing. Only rank-2 tensors have a
// matrix view.
func (q *Tensor) QMat() (tensor.QMat, error) {
	if len(q.shape) != 2 {
		return tensor.QMat{}, fmt.Errorf("quant: QMat on rank-%d tensor, want 2", len(q.shape))
	}
	return tensor.QMat{
		Rows: q.shape[0],
		Cols: q.shape[1],
		Dequantize: func(pool *threadpool.Pool, width int, dst []float32) {
			DequantizeInto(pool, width, dst, q)
		},
	}, nil
}
