package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// requireBits fails unless got and want hold the same float32 bit patterns.
func requireBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Rank() != want.Rank() || got.Numel() != want.Numel() {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %g, want %g", label, i, g, w)
		}
	}
}

// history returns a [rows, hidden] tensor of random rows with room for one
// more row, as a fetched KV history has; nil for rows == 0.
func history(rng *rand.Rand, rows, hidden int) *tensor.Tensor {
	if rows == 0 {
		return nil
	}
	data := make([]float32, rows*hidden, (rows+1)*hidden)
	copy(data, tensor.RandN(rng, 1, rows, hidden).Data())
	return tensor.FromSlice(data, rows, hidden)
}

func cloneAll(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, x := range ts {
		out[i] = x.Clone()
	}
	return out
}

// TestAttentionStackedMatchesPerSequence: one AttentionAt over ragged
// sequences — a decode row, a short chunk and a 64-row prefill, each on top
// of its own KV history — is bit-identical to calling it once per sequence,
// in hidden states, the new K/V rows and the cache. A later decode append
// onto one sequence, even one whose cache storage is the call's own K/V
// view, leaves every other sequence's rows as they were.
func TestAttentionStackedMatchesPerSequence(t *testing.T) {
	cfg := Small()
	h := cfg.Hidden
	rng := rand.New(rand.NewSource(3))
	lw := NewLayerWeights(rng, cfg)
	lens, hist := []int{1, 3, 64}, []int{9, 5, 2}
	stacked := NewKVCache(1, len(lens), h)
	solo := NewKVCache(1, len(lens), h)
	x := make([]*tensor.Tensor, len(lens))
	for s := range lens {
		hk, hv := history(rng, hist[s], h), history(rng, hist[s], h)
		stacked.SetKV(0, s, hk, hv)
		solo.SetKV(0, s, hk.Clone(), hv.Clone())
		x[s] = tensor.RandN(rng, 1, lens[s], h)
	}
	xSolo := cloneAll(x)

	pool := threadpool.MustNew(2)
	out := AttentionAt(pool, 2, cfg, lw, stacked, 0, 0, x)
	for s := range lens {
		want := AttentionAt(nil, 1, cfg, lw, solo, 0, s, xSolo[s:s+1])
		requireBits(t, "hidden states", x[s], xSolo[s])
		requireBits(t, "last-row hidden", tensor.FromSlice(out.Hidden.Row(s), 1, h), want.Hidden)
		requireBits(t, "new K", out.NewK[s], want.NewK[0])
		requireBits(t, "new V", out.NewV[s], want.NewV[0])
		requireBits(t, "cached K", stacked.Keys(0, s), solo.Keys(0, s))
		requireBits(t, "cached V", stacked.Values(0, s), solo.Values(0, s))
	}

	newK, newV := cloneAll(out.NewK), cloneAll(out.NewV)
	cached := func(c *KVCache, s int) []*tensor.Tensor {
		return []*tensor.Tensor{c.Keys(0, s).Clone(), c.Values(0, s).Clone()}
	}
	before := [][]*tensor.Tensor{cached(stacked, 1), cached(stacked, 2)}
	// Sequence 0 continues on its own projection rows, which sit directly
	// before sequence 1's in the call's stacked K/V.
	stacked.SetKV(0, 0, out.NewK[0], out.NewV[0])
	AttentionAt(pool, 2, cfg, lw, stacked, 0, 0, []*tensor.Tensor{tensor.RandN(rng, 1, 1, h)})
	AttentionAt(nil, 1, cfg, lw, stacked, 0, 1, []*tensor.Tensor{tensor.RandN(rng, 1, 1, h)})
	for s := range lens {
		requireBits(t, "new K after append", out.NewK[s], newK[s])
		requireBits(t, "new V after append", out.NewV[s], newV[s])
	}
	got := cached(stacked, 2)
	requireBits(t, "other sequence's cached K", got[0], before[1][0])
	requireBits(t, "other sequence's cached V", got[1], before[1][1])
	// Sequence 1 itself grew by exactly one row on top of unchanged history.
	grown := cached(stacked, 1)
	rows := before[0][0].Dim(0)
	requireBits(t, "appended-to K history", grown[0].SliceRows(0, rows), before[0][0])
	requireBits(t, "appended-to V history", grown[1].SliceRows(0, rows), before[0][1])
}

// TestAttentionDecodeAllocsPerHead gates the decode step's allocation
// budget: a head must not allocate. It measures one-sequence decode
// AttentionAt calls (Small model, serial) at 4 and 16 heads; the 12 extra
// heads account for the whole difference.
func TestAttentionDecodeAllocsPerHead(t *testing.T) {
	allocs := func(heads int) float64 {
		cfg := Small()
		cfg.Heads = heads
		rng := rand.New(rand.NewSource(1))
		lw := NewLayerWeights(rng, cfg)
		cache := NewKVCache(1, 1, cfg.Hidden)
		hk, hv := tensor.RandN(rng, 1, 16, cfg.Hidden), tensor.RandN(rng, 1, 16, cfg.Hidden)
		x0 := tensor.RandN(rng, 1, 1, cfg.Hidden)
		x := []*tensor.Tensor{x0.Clone()}
		return testing.AllocsPerRun(20, func() {
			cache.SetKV(0, 0, hk, hv) // full capacity: every append copies alike
			copy(x[0].Data(), x0.Data())
			AttentionAt(nil, 1, cfg, lw, cache, 0, 0, x)
		})
	}
	a4, a16 := allocs(4), allocs(16)
	perHead := (a16 - a4) / 12
	t.Logf("decode AttentionAt allocations: %.0f at 4 heads, %.0f at 16 heads, %.2f per head", a4, a16, perHead)
	if perHead > 2 {
		t.Errorf("decode attention allocates %.2f times per head, want at most 2", perHead)
	}
}
