// Package tensor implements the dense float32 tensor substrate used by the
// functional LM-Offload runtime: row-major n-dimensional arrays with the
// operations a transformer forward pass needs (blocked parallel matrix
// multiplication, softmax, layer normalization, GELU, concatenation), all
// executed on the threadpool so intra-op parallelism is an explicit input.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 array. Data is shared on slicing
// operations that say so and copied otherwise; each method documents which.
type Tensor struct {
	data  []float32
	shape []int
}

// New allocates a zero tensor with the given shape. Every dimension must be
// positive.
func New(shape ...int) *Tensor {
	n := checkedNumel(shape)
	return &Tensor{data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor of the given shape without copying.
// len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkedNumel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d != shape product %d", len(data), n))
	}
	return &Tensor{data: data, shape: append([]int(nil), shape...)}
}

func checkedNumel(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		if n > math.MaxInt/d {
			panic(fmt.Sprintf("tensor: shape %v overflows element count", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the dimensions. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Numel returns the total element count.
func (t *Tensor) Numel() int { return len(t.data) }

// Data exposes the backing slice (row-major). Mutations are visible to every
// view sharing it.
func (t *Tensor) Data() []float32 { return t.data }

// Bytes returns the in-memory size assuming 4-byte elements.
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dimension %d (size %d)", x, i, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	data := make([]float32, len(t.data))
	copy(data, t.data)
	return &Tensor{data: data, shape: append([]int(nil), t.shape...)}
}

// Row returns row i of a rank-2 tensor as a shared view of length cols.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	cols := t.shape[1]
	return t.data[i*cols : (i+1)*cols]
}

// SliceRows returns rows [lo, hi) of a rank-2 tensor as a shared view.
func (t *Tensor) SliceRows(lo, hi int) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: SliceRows on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	if lo < 0 || hi > rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows[%d:%d] out of range for %d rows", lo, hi, rows))
	}
	return &Tensor{data: t.data[lo*cols : hi*cols], shape: []int{hi - lo, cols}}
}

// Equal reports element-wise equality of shape and data.
func (t *Tensor) Equal(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	for i := range t.data {
		if t.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between two
// same-shaped tensors, used by quantization round-trip tests.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if len(t.data) != len(o.data) {
		panic("tensor: MaxAbsDiff on different sizes")
	}
	var m float64
	for i := range t.data {
		d := math.Abs(float64(t.data[i] - o.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// String formats small tensors for debugging.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elems]", t.shape, len(t.data))
}
