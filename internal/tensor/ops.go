package tensor

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cpufeat"
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

// useAVX2FMA selects the exponential and GELU kernels of ops_amd64.s. They
// port math.Exp's fused multiply-add path, which math.Exp takes exactly
// when the processor has AVX and FMA, so they need both extensions (see
// cpufeat.FMA). It is set once from CPUID; tests flip it to compare the two
// paths. The Go loops are the reference and the path on every other CPU and
// architecture.
var useAVX2FMA = cpufeat.AVX2 && cpufeat.FMA && expKernelMatches()

// fmaKernels records whether the exponential and GELU kernels were
// selected at start-up.
var fmaKernels = useAVX2FMA

// OnPath runs f with the assembly kernels selected (simd), where they were
// available at start-up, or with the portable Go loops only, then restores
// the selection. It serves differential tests, in this package and in
// others, that compare a computation's two paths bit for bit. It changes
// package-wide state: while f runs, nothing but f and the goroutines it
// starts and waits for may use the package.
func OnPath(simd bool, f func()) {
	defer func(a, b bool) { useAVX2, useAVX2FMA = a, b }(useAVX2, useAVX2FMA)
	useAVX2, useAVX2FMA = simd && cpufeat.AVX2, simd && fmaKernels
	f()
}

// expProbes are arguments on which math.Exp's fused and unfused paths
// return different bits (TestExpProbeSelectsKernels).
var expProbes = [8]float64{-38.75, -23.5, -13.5, -3.75, 7.25, 14.25, 22, 39.25}

// expKernelMatches confirms at start-up that math.Exp takes the fused path
// the kernel ports. The processor decides that, except that GODEBUG can
// switch FMA off for the Go runtime (cpu.fma=off); the portable loops then
// stay the only path, so both paths keep one result.
func expKernelMatches() bool {
	x := expProbes
	if expAVX2(&x[0], len(x)) != 0 {
		return false
	}
	for i, a := range expProbes {
		if math.Float64bits(x[i]) != math.Float64bits(math.Exp(a)) {
			return false
		}
	}
	return true
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
		softmaxRow(data[i*n:(i+1)*n], 1)
	}
}

// CausalSoftmaxRows is attention's scaled, causally masked softmax over the
// m×n scores t, in place: row i sees columns [0, base+i]. Those are
// multiplied by scale and normalized over themselves alone; every later
// column is written as 0·inv, inv being the row's normalizing factor.
//
// The result is bit-identical to Scale(t, scale), then setting the later
// columns to -Inf, then SoftmaxRows. The row maximum is the same, because
// row[0] is always visible and -Inf never exceeds the running maximum. A
// masked column's exp is +0, which leaves the row's sum unchanged, unless
// the maximum is -Inf or NaN; the visible columns have then made the sum NaN
// already. Its output is 0·inv, as here: +0, or NaN exactly when the sum is.
func CausalSoftmaxRows(pool *threadpool.Pool, width int, t *Tensor, scale float32, base int) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: CausalSoftmaxRows on rank-%d tensor", t.Rank()))
	}
	m, n := t.Dim(0), t.Dim(1)
	if base < 0 || base+m > n {
		panic(fmt.Sprintf("tensor: CausalSoftmaxRows base %d for shape %v", base, t.Shape()))
	}
	if pool == nil || width <= 1 || m <= 1 {
		causalSoftmaxRows(t.data, n, base, scale, 0, m)
		return
	}
	pool.ParallelRange(m, width, func(lo, hi int) { causalSoftmaxRows(t.data, n, base, scale, lo, hi) })
}

// causalSoftmaxRows is CausalSoftmaxRows over rows [lo, hi).
func causalSoftmaxRows(data []float32, n, base int, scale float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := data[i*n : (i+1)*n]
		vis := base + i + 1
		masked := 0 * softmaxRow(row[:vis], scale)
		for j := vis; j < n; j++ {
			row[j] = masked
		}
	}
}

// expBlock is how many exponentials softmaxRow computes per pass; its
// buffer lives on the stack.
const expBlock = 64

// softmaxRow multiplies row by scale, normalizes it in place and returns
// the factor it normalized by: with r_j = row[j]·scale,
// row[j] = float32(e_j) * float32(1/Σe), e_j = math.Exp(float64(r_j-max)),
// the float64 sum taken in ascending j.
//
// With AVX2, on rows of at least eight elements, the scale with the maximum
// and the final multiply run eight lanes at a time, each lane performing
// the Go loop's one rounded operation. With FMA too, expSumAVX2 forms the
// exponentials four lanes at a time and adds them to the sum one by one in
// ascending j, because reordering the sum changes its bits; it stops at the
// first group of four holding an argument outside its range, and the Go
// loop finishes the row. The vector maximum can differ from the loop's
// (row[0], then each element greater than it) only in two ways that change
// no output. It may be a zero of the other sign, and r_j-max is then ±0
// exactly where the loop's is ±0, whose exponential is 1 either way. Or the
// row holds a NaN: its exponential makes the sum NaN, and so every output,
// whatever the maximum.
func softmaxRow(row []float32, scale float32) (inv float32) {
	vec := useAVX2 && len(row) >= 8 // the assembly loops run
	var maxV float32
	scaled := 1 // elements scaled and compared before the Go loop
	if vec {
		scaled = len(row) &^ 7
		maxV = scaleMaxAVX2(&row[0], scaled, scale)
	} else {
		row[0] *= scale
		maxV = row[0]
	}
	for j := scaled; j < len(row); j++ {
		row[j] *= scale
		if row[j] > maxV {
			maxV = row[j]
		}
	}
	var sum float64
	done := 0 // elements expSumAVX2 covers
	if vec && useAVX2FMA {
		done = expSumAVX2(&row[0], len(row)&^3, maxV, &sum)
	}
	var e [expBlock]float64
	for lo := done; lo < len(row); lo += expBlock {
		blk := row[lo:min(lo+expBlock, len(row))]
		x := e[:len(blk)]
		for j, v := range blk {
			x[j] = float64(v - maxV)
		}
		expLanes(x)
		for j, v := range x {
			blk[j] = float32(v)
			sum += v
		}
	}
	inv = float32(1 / sum)
	w := 0 // elements mulAVX2 covers
	if vec {
		w = len(row) &^ 7
		mulAVX2(&row[0], w, inv)
	}
	for j := w; j < len(row); j++ {
		row[j] *= inv
	}
	return inv
}

// expLanes sets x[j] = math.Exp(x[j]) for up to 64 elements. With AVX2 and
// FMA, every lane takes expAVX2 — the last partial group of four on a
// zero-padded copy — and the lanes it flags (outside [-708, 709], ±Inf and
// NaN) take math.Exp.
func expLanes(x []float64) {
	if !useAVX2FMA {
		for j, v := range x {
			x[j] = math.Exp(v)
		}
		return
	}
	v := len(x) &^ 3 // elements the assembly loop covers in place
	var bad uint64
	if v > 0 {
		bad = expAVX2(&x[0], v)
	}
	if v < len(x) {
		var tail [4]float64
		copy(tail[:], x[v:])
		bad |= expAVX2(&tail[0], 4) << v
		copy(x[v:], tail[:])
	}
	for ; bad != 0; bad &= bad - 1 {
		j := bits.TrailingZeros64(bad)
		x[j] = math.Exp(x[j])
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
// the MLP activation used by OPT and LLaMA-family models. With AVX2 and FMA,
// whole groups of four elements take geluAVX2, which evaluates gelu's
// expression lane by lane with every rounding in place; the tail stays in Go.
func GELU(t *Tensor) {
	d := t.data
	v := 0 // elements the assembly loop covers
	if useAVX2FMA && len(d) >= 4 {
		v = len(d) &^ 3
		geluAVX2(&d[0], v)
	}
	for i := v; i < len(d); i++ {
		d[i] = gelu(d[i])
	}
}

// gelu is GELU on one element: 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))),
// in float64.
func gelu(v float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
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
