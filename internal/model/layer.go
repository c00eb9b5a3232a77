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
func AttentionAt(pool *threadpool.Pool, width int, cfg Config, lw *LayerWeights, cache *KVCache, layer, seqBase int, x []*tensor.Tensor) AttentionOutput {
	batch := len(x)
	h := cfg.Hidden
	heads := cfg.Heads
	dk := cfg.HeadDim()
	scale := float32(1 / math.Sqrt(float64(dk)))

	out := AttentionOutput{
		Hidden: tensor.New(batch, h),
		NewK:   make([]*tensor.Tensor, batch),
		NewV:   make([]*tensor.Tensor, batch),
	}
	for s := 0; s < batch; s++ {
		xs := x[s] // [t, hidden]
		norm := xs.Clone()
		tensor.LayerNormRows(norm, lw.LN1Gain, nil, 1e-5)

		q := tensor.MatMul(pool, width, norm, lw.WQ) // [t, h]
		k := tensor.MatMul(pool, width, norm, lw.WK)
		v := tensor.MatMul(pool, width, norm, lw.WV)
		cache.Append(layer, seqBase+s, k, v)
		out.NewK[s], out.NewV[s] = k, v

		t := q.Dim(0)
		keys := cache.Keys(layer, seqBase+s) // [T, h]
		values := cache.Values(layer, seqBase+s)
		T := keys.Dim(0)
		attnOut := tensor.New(t, h)

		// Per-head attention with causal masking for prefill rows.
		for head := 0; head < heads; head++ {
			off := head * dk
			qh := sliceCols(q, off, dk)                   // [t, dk]
			kh := sliceCols(keys, off, dk)                // [T, dk]
			vh := sliceCols(values, off, dk)              // [T, dk]
			scores := tensor.MatMulT(pool, width, qh, kh) // [t, T]
			tensor.Scale(scores, scale)
			// Causal mask: query row i (absolute position T - t + i) may only
			// attend to keys 0..T-t+i.
			base := T - t
			for i := 0; i < t; i++ {
				row := scores.Row(i)
				for j := base + i + 1; j < T; j++ {
					row[j] = float32(math.Inf(-1))
				}
			}
			tensor.SoftmaxRows(pool, width, scores)
			ctx := tensor.MatMul(pool, width, scores, vh) // [t, dk]
			copyCols(attnOut, ctx, off)
		}

		proj := tensor.MatMul(pool, width, attnOut, lw.WO)
		tensor.AddInPlace(proj, xs) // residual
		// xs is updated in place so prefill (t > 1) carries every position to
		// the next layer; Hidden collects the last position per sequence,
		// which is all a decode step needs.
		copy(xs.Data(), proj.Data())
		copy(out.Hidden.Row(s), proj.Row(t-1))
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
// place (prefill path).
func MLPSeq(pool *threadpool.Pool, width int, cfg Config, lw *LayerWeights, x []*tensor.Tensor) {
	for _, xs := range x {
		MLP(pool, width, cfg, lw, xs)
	}
}

// sliceCols copies columns [off, off+w) of t into a new [rows, w] tensor.
func sliceCols(t *tensor.Tensor, off, w int) *tensor.Tensor {
	rows, cols := t.Dim(0), t.Dim(1)
	out := tensor.New(rows, w)
	for i := 0; i < rows; i++ {
		copy(out.Row(i), t.Data()[i*cols+off:i*cols+off+w])
	}
	return out
}

// copyCols writes src ([rows, w]) into dst's columns starting at off.
func copyCols(dst, src *tensor.Tensor, off int) {
	rows, w := src.Dim(0), src.Dim(1)
	cols := dst.Dim(1)
	for i := 0; i < rows; i++ {
		copy(dst.Data()[i*cols+off:i*cols+off+w], src.Row(i))
	}
}
