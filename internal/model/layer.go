package model

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// LayerWeights holds one transformer layer's parameters: the four attention
// projections, the two MLP linears, and the two layer norms.
type LayerWeights struct {
	WQ, WK, WV, WO *tensor.Tensor // [hidden, hidden]
	W1             *tensor.Tensor // [hidden, ffn]
	W2             *tensor.Tensor // [ffn, hidden]
	LN1Gain        *tensor.Tensor // [hidden]
	LN2Gain        *tensor.Tensor // [hidden]
}

// NewLayerWeights draws random weights with 1/sqrt(fanin) scaling, which
// keeps activations bounded through deep stacks.
func NewLayerWeights(rng *rand.Rand, cfg Config) *LayerWeights {
	h, f := cfg.Hidden, cfg.FFN
	sh := 1 / math.Sqrt(float64(h))
	sf := 1 / math.Sqrt(float64(f))
	return &LayerWeights{
		WQ:      tensor.RandN(rng, sh, h, h),
		WK:      tensor.RandN(rng, sh, h, h),
		WV:      tensor.RandN(rng, sh, h, h),
		WO:      tensor.RandN(rng, sh, h, h),
		W1:      tensor.RandN(rng, sh, h, f),
		W2:      tensor.RandN(rng, sf, f, h),
		LN1Gain: tensor.Ones(h),
		LN2Gain: tensor.Ones(h),
	}
}

// Tensors returns the layer's weight matrices in a fixed order, used by the
// offloading runtime to move them between memory arenas.
func (lw *LayerWeights) Tensors() []*tensor.Tensor {
	return []*tensor.Tensor{lw.WQ, lw.WK, lw.WV, lw.WO, lw.W1, lw.W2}
}

// Bytes returns the float32 footprint of the matrices (layer norms are
// negligible and stay resident).
func (lw *LayerWeights) Bytes() int64 {
	var n int64
	for _, t := range lw.Tensors() {
		n += t.Bytes()
	}
	return n
}

// AttentionOutput is the result of one layer's attention over a batch.
type AttentionOutput struct {
	// Hidden is the [batch, hidden] output after the output projection and
	// residual connection.
	Hidden *tensor.Tensor
	// NewK and NewV are the [batch][t, hidden] per-sequence projections that
	// were appended to the KV cache (exposed for offload accounting).
	NewK, NewV []*tensor.Tensor
}

// Attention runs multi-head self-attention for a decode step or prefill.
//
// x is [batch, t, hidden] flattened as batch rows of t×hidden (t = 1 for a
// decode step, t = prompt length for prefill). For each sequence the new
// K/V rows are appended to cache before scores are computed, so the current
// token attends to itself — matching the paper's Figure 1 dataflow
// (Q·Kᵀ/√d_k, softmax, ·V).
//
// pool/width select the intra-op parallelism of the matrix multiplies, the
// knob LM-Offload's parallelism control tunes.
func Attention(pool *threadpool.Pool, width int, cfg Config, lw *LayerWeights, cache *KVCache, layer int, x []*tensor.Tensor) AttentionOutput {
	return AttentionAt(pool, width, cfg, lw, cache, layer, 0, x)
}

// AttentionAt is Attention over a GPU batch that starts at cache sequence
// slot seqBase — the k-loop of Algorithm 1 processes the zig-zag block's
// batches one at a time against the shared cache.
//
// Every sequence's rows pass through the layer norm and the Q/K/V and
// output projections as one stacked [Σt, hidden] matrix, so each weight
// matrix is streamed once per call rather than once per sequence. Each
// row's arithmetic is independent of the other rows, so the batch's
// composition cannot change a value. Heads read their columns of Q, K and
// V in place and write their context straight into the attention output.
func AttentionAt(pool *threadpool.Pool, width int, cfg Config, lw *LayerWeights, cache *KVCache, layer, seqBase int, x []*tensor.Tensor) AttentionOutput {
	batch := len(x)
	h := cfg.Hidden
	dk := cfg.HeadDim()
	scale := float32(1 / math.Sqrt(float64(dk)))

	norm := stackRows(x, h) // [Σt, hidden]
	tensor.LayerNormRows(norm, lw.LN1Gain, nil, 1e-5)
	q := tensor.MatMul(pool, width, norm, lw.WQ)
	k := tensor.MatMul(pool, width, norm, lw.WK)
	v := tensor.MatMul(pool, width, norm, lw.WV)
	attnOut := tensor.New(norm.Dim(0), h)

	out := AttentionOutput{
		Hidden: tensor.New(batch, h),
		NewK:   make([]*tensor.Tensor, batch),
		NewV:   make([]*tensor.Tensor, batch),
	}
	// One [t, T] scores matrix and one [dk, T] transposed key window,
	// reused by every head, and by the next sequence when it has the same
	// shape (a decode group's sequences usually do).
	var scores, keysT *tensor.Tensor
	r0 := 0
	for s, xs := range x {
		t := xs.Dim(0)
		ks, vs := rowsView(k, r0, t), rowsView(v, r0, t)
		cache.Append(layer, seqBase+s, ks, vs)
		out.NewK[s], out.NewV[s] = ks, vs

		keys := cache.Keys(layer, seqBase+s) // [T, h]
		values := cache.Values(layer, seqBase+s)
		T := keys.Dim(0)
		scores = reshaped(scores, t, T)
		keysT = reshaped(keysT, dk, T)
		qs, ctx := rowsView(q, r0, t), rowsView(attnOut, r0, t)

		// Per-head attention: Q_h·K_hᵀ through the dense kernel, then the
		// scaled softmax with causal masking for prefill rows — query row i
		// (absolute position T - t + i) attends to keys 0..T-t+i.
		for head := 0; head < cfg.Heads; head++ {
			off := head * dk
			tensor.TransposeCols(keysT, tensor.Cols{T: keys, Off: off, Width: dk})
			tensor.MatMulACols(pool, width, tensor.Cols{T: qs, Off: off, Width: dk}, keysT, scores)
			tensor.CausalSoftmaxRows(pool, width, scores, scale, T-t)
			tensor.MatMulCols(pool, width, scores, tensor.Cols{T: values, Off: off, Width: dk}, tensor.Cols{T: ctx, Off: off, Width: dk})
		}
		r0 += t
	}

	proj := tensor.MatMul(pool, width, attnOut, lw.WO).Data()
	r0 = 0
	for s, xs := range x {
		// Residual, written back into xs so prefill (t > 1) carries every
		// position to the next layer; Hidden collects the last position per
		// sequence, which is all a decode step needs.
		xd := xs.Data()
		for i, xv := range xd {
			xd[i] = proj[r0*h+i] + xv
		}
		t := xs.Dim(0)
		copy(out.Hidden.Row(s), xs.Row(t-1))
		r0 += t
	}
	return out
}

// MLP runs the feed-forward block on a [batch, hidden] tensor in place:
// LayerNorm → W1 → GELU → W2 → residual.
func MLP(pool *threadpool.Pool, width int, cfg Config, lw *LayerWeights, x *tensor.Tensor) {
	norm := x.Clone()
	tensor.LayerNormRows(norm, lw.LN2Gain, nil, 1e-5)
	h1 := tensor.MatMul(pool, width, norm, lw.W1)
	tensor.GELU(h1)
	h2 := tensor.MatMul(pool, width, h1, lw.W2)
	tensor.AddInPlace(x, h2)
}

// MLPSeq applies the feed-forward block to every row of each sequence in
// place, with all sequences' rows stacked into one matrix so each weight
// matrix is streamed once; rows stay independent, as in AttentionAt.
func MLPSeq(pool *threadpool.Pool, width int, cfg Config, lw *LayerWeights, x []*tensor.Tensor) {
	if len(x) == 1 {
		MLP(pool, width, cfg, lw, x[0])
		return
	}
	rows := stackRows(x, cfg.Hidden)
	MLP(pool, width, cfg, lw, rows)
	rd := rows.Data()
	for _, xs := range x {
		rd = rd[copy(xs.Data(), rd):]
	}
}

// reshaped returns an m×n tensor over buf's storage: buf itself when it
// already has that shape, a view of its first m·n elements when they fit,
// and a new tensor otherwise. A nil buf yields a new tensor.
func reshaped(buf *tensor.Tensor, m, n int) *tensor.Tensor {
	switch {
	case buf != nil && buf.Dim(0) == m && buf.Dim(1) == n:
		return buf
	case buf != nil && cap(buf.Data()) >= m*n:
		return tensor.FromSlice(buf.Data()[:m*n:cap(buf.Data())], m, n)
	}
	return tensor.New(m, n)
}

// stackRows copies the rows of every [t, hidden] tensor in x, in order, into
// one new [Σt, hidden] tensor.
func stackRows(x []*tensor.Tensor, hidden int) *tensor.Tensor {
	n := 0
	for _, xs := range x {
		n += xs.Dim(0)
	}
	out := tensor.New(n, hidden)
	od := out.Data()
	for _, xs := range x {
		od = od[copy(od, xs.Data()):]
	}
	return out
}

// rowsView returns rows [r0, r0+n) of t as a view whose capacity ends at
// its last row, so appending to it (KVCache.Append grows a slot's history
// in place when there is room) copies instead of overwriting the rows of
// the sequence stacked after it.
func rowsView(t *tensor.Tensor, r0, n int) *tensor.Tensor {
	w := t.Dim(1)
	lo, hi := r0*w, (r0+n)*w
	return tensor.FromSlice(t.Data()[lo:hi:hi], n, w)
}
