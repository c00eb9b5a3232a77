package model

import (
	"math"
	"math/rand"
	"sync"

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
	// Every sequence's new K/V rows go into its cache slot first, so the
	// heads below read complete histories.
	seqs := make([]headInputs, batch)
	scores := 0 // one head's scores over the batch, t·T per sequence
	r0 := 0
	for s, xs := range x {
		t := xs.Dim(0)
		ks, vs := rowsView(k, r0, t), rowsView(v, r0, t)
		cache.Append(layer, seqBase+s, ks, vs)
		out.NewK[s], out.NewV[s] = ks, vs
		seqs[s] = headInputs{
			q: rowsView(q, r0, t), ctx: rowsView(attnOut, r0, t),
			keys: cache.Keys(layer, seqBase+s), values: cache.Values(layer, seqBase+s),
		}
		scores += t * seqs[s].keys.Dim(0)
		r0 += t
	}

	// One dispatch over the batch's (sequence, head) items, unless they are
	// too little work to pay for it. Each item is independent — it reads its
	// head's columns of Q, K and V and writes its own columns of the
	// attention output — so the split never changes a value. Each worker
	// reuses one scratch across its items, and the kernels inside an item
	// run serially.
	heads := cfg.Heads
	attend := func(lo, hi int) {
		scr := headScratch.Get().(*tensor.HeadScratch)
		defer headScratch.Put(scr)
		for it := lo; it < hi; it++ {
			in, off := seqs[it/heads], (it%heads)*dk
			tensor.AttentionHead(scr,
				tensor.Cols{T: in.q, Off: off, Width: dk}, tensor.Cols{T: in.keys, Off: off, Width: dk},
				tensor.Cols{T: in.values, Off: off, Width: dk}, tensor.Cols{T: in.ctx, Off: off, Width: dk}, scale)
		}
	}
	if items := batch * heads; pool == nil || width <= 1 || scores*heads < minParallelScores {
		attend(0, items)
	} else {
		pool.ParallelRange(items, width, attend)
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

// minParallelScores is the least attention work, in scores over all heads
// of a batch, that AttentionAt splits over the pool: some 30 µs of heads on
// a 2.1 GHz Xeon core, several times what a dispatch costs. Below it, as for
// a few decode rows against short histories, the dispatch costs more than
// it saves, and on a busy host its goroutines can wait a scheduler time
// slice.
const minParallelScores = 2048

// headInputs are one sequence's views for its heads: its rows of Q and of
// the attention output, and its cached keys and values (the new rows
// included).
type headInputs struct {
	q, ctx, keys, values *tensor.Tensor
}

// headScratch holds the workers' per-head buffers (tensor.HeadScratch)
// between AttentionAt calls, so they are not reallocated for every call.
var headScratch = sync.Pool{New: func() any { return new(tensor.HeadScratch) }}

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
