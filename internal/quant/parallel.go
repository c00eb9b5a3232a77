package quant

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// QuantizeParallel is Quantize with the per-group work spread over a worker
// pool: groups are independent (each has its own min/max and packed span
// when the group size keeps code spans byte-aligned), so the kernel
// parallelizes embarrassingly. Falls back to the serial kernel when the
// packed group span is not byte-aligned (groupSize*bits % 8 != 0), where
// adjacent groups would race on shared bytes.
func QuantizeParallel(pool *threadpool.Pool, width int, t *tensor.Tensor, cfg Config) (*Tensor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pool == nil || width <= 1 || (cfg.GroupSize*cfg.Bits)%8 != 0 {
		return Quantize(t, cfg)
	}
	q, work := newQuantized(t, cfg)
	pool.ParallelRange(len(q.mins), width, func(lo, hi int) {
		q.quantizeGroups(work, lo, hi, make([]uint8, cfg.GroupSize))
	})
	q.seal()
	return q, nil
}

// DequantizeParallel reverses QuantizeParallel over the pool into a fresh
// tensor; see DequantizeInto.
func DequantizeParallel(pool *threadpool.Pool, width int, q *Tensor) *tensor.Tensor {
	out := make([]float32, q.numel)
	DequantizeInto(pool, width, out, q)
	return tensor.FromSlice(out, q.shape...)
}

// parallelMinGroups is the smallest group count DequantizeInto spreads over
// the pool: below it the fork-join costs more than the groups take to
// dequantize serially (a one-row KV chunk of the Small model is 2 groups).
const parallelMinGroups = 64

// DequantizeInto writes q's reconstruction (Eq. 11) into dst, which must
// hold exactly q's element count — the allocation-free form for staging
// many tensors into one buffer. Groups write disjoint spans of dst, but with
// a non-byte-aligned config (AlignedForParallel() == false, e.g.
// Bits=3/GroupSize=10) adjacent groups read shared packed bytes; like
// QuantizeParallel, those configs run the serial kernel, which is bit-exact
// with the parallel one, as do tensors under parallelMinGroups groups.
func DequantizeInto(pool *threadpool.Pool, width int, dst []float32, q *Tensor) {
	if len(dst) != q.numel {
		panic(fmt.Sprintf("quant: DequantizeInto destination holds %d elements, tensor has %d", len(dst), q.numel))
	}
	groups := len(q.mins)
	if pool == nil || width <= 1 || !q.cfg.AlignedForParallel() || groups < parallelMinGroups {
		q.dequantGroups(dst, 0, groups)
		return
	}
	pool.ParallelRange(groups, width, func(lo, hi int) { q.dequantGroups(dst, lo, hi) })
}

// AlignedForParallel reports whether cfg's packed group span is
// byte-aligned, the condition for safe concurrent packing.
func (c Config) AlignedForParallel() bool { return (c.GroupSize*c.Bits)%8 == 0 }
