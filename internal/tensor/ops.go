package tensor

import (
	"fmt"
	"math"

	"repro/internal/threadpool"
)

// Add computes a + b element-wise into a new tensor. Shapes must match.
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	checkSameShape("AddInPlace", a, b)
	for i := range a.data {
		a.data[i] += b.data[i]
	}
}

// AddBias adds a length-n bias vector to every row of an m×n tensor in place.
func AddBias(t *Tensor, bias *Tensor) {
	if t.Rank() != 2 || bias.Rank() != 1 || bias.Dim(0) != t.Dim(1) {
		panic(fmt.Sprintf("tensor: AddBias shapes %v and %v incompatible", t.Shape(), bias.Shape()))
	}
	m, n := t.Dim(0), t.Dim(1)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j := range row {
			row[j] += bias.data[j]
		}
	}
}

// Scale multiplies every element by s in place and returns t for chaining.
func Scale(t *Tensor, s float32) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

func checkSameShape(op string, a, b *Tensor) {
	if len(a.shape) != len(b.shape) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
		}
	}
}

// SoftmaxRows applies a numerically stable softmax to each row of an m×n
// tensor in place, parallelized over rows.
func SoftmaxRows(pool *threadpool.Pool, width int, t *Tensor) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows on rank-%d tensor", t.Rank()))
	}
	m, n := t.Dim(0), t.Dim(1)
	if pool == nil || width <= 1 || m <= 1 {
		softmaxRows(t.data, n, 0, m)
		return
	}
	pool.ParallelRange(m, width, func(lo, hi int) { softmaxRows(t.data, n, lo, hi) })
}

// softmaxRows normalizes rows [lo, hi) of the n-column matrix data.
func softmaxRows(data []float32, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := data[i*n : (i+1)*n]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			row[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

// LayerNormRows normalizes each row of an m×n tensor to zero mean and unit
// variance, then applies elementwise gain and (optional) bias, in place.
func LayerNormRows(t *Tensor, gain, bias *Tensor, eps float32) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: LayerNormRows on rank-%d tensor", t.Rank()))
	}
	m, n := t.Dim(0), t.Dim(1)
	if gain.Rank() != 1 || gain.Dim(0) != n {
		panic(fmt.Sprintf("tensor: LayerNormRows gain shape %v, want [%d]", gain.Shape(), n))
	}
	if bias != nil && (bias.Rank() != 1 || bias.Dim(0) != n) {
		panic(fmt.Sprintf("tensor: LayerNormRows bias shape %v, want [%d]", bias.Shape(), n))
	}
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(n)
		var variance float64
		for _, v := range row {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(n)
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		for j := range row {
			v := (row[j] - float32(mean)) * inv * gain.data[j]
			if bias != nil {
				v += bias.data[j]
			}
			row[j] = v
		}
	}
}

// GELU applies the tanh-approximated Gaussian error linear unit in place,
// the MLP activation used by OPT and LLaMA-family models.
func GELU(t *Tensor) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range t.data {
		x := float64(v)
		t.data[i] = float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	}
}

// ReLU applies max(0, x) in place.
func ReLU(t *Tensor) {
	for i, v := range t.data {
		if v < 0 {
			t.data[i] = 0
		}
	}
}

// ConcatRows stacks two rank-2 tensors with equal column counts vertically
// into a new tensor — the KV-cache append operation.
func ConcatRows(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: ConcatRows shapes %v and %v incompatible", a.Shape(), b.Shape()))
	}
	out := New(a.Dim(0)+b.Dim(0), a.Dim(1))
	copy(out.data, a.data)
	copy(out.data[len(a.data):], b.data)
	return out
}

// AppendRows appends b's rows to the rank-2 tensor a and returns the grown
// tensor, with the built-in append's semantics: the result shares a's
// storage when a has spare capacity and is a fresh copy otherwise. The rows
// visible through a never change. Only a's owner may append to it — two
// appends onto the same a would write the same spare rows. A nil a yields a
// copy of b.
func AppendRows(a, b *Tensor) *Tensor {
	if a == nil {
		return b.Clone()
	}
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: AppendRows shapes %v and %v incompatible", a.Shape(), b.Shape()))
	}
	return &Tensor{data: append(a.data, b.data...), shape: []int{a.Dim(0) + b.Dim(0), a.Dim(1)}}
}

// ArgmaxRows returns, for each row of an m×n tensor, the column index of the
// maximum value — greedy decoding over logits.
func ArgmaxRows(t *Tensor) []int {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows on rank-%d tensor", t.Rank()))
	}
	m, n := t.Dim(0), t.Dim(1)
	out := make([]int, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// Mean returns the arithmetic mean of all elements.
func Mean(t *Tensor) float64 {
	var sum float64
	for _, v := range t.data {
		sum += float64(v)
	}
	return sum / float64(len(t.data))
}

// L2Norm returns the Euclidean norm of all elements.
func L2Norm(t *Tensor) float64 {
	var sum float64
	for _, v := range t.data {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}
