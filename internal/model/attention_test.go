package model

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"runtime/debug"
	"sort"
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

// sameFloats fails unless got and want hold the same float32 bit patterns,
// any NaN matching any NaN: which NaN an operation returns depends on its
// operand order, which no kernel contract pins.
func sameFloats(t testing.TB, label string, got, want []float32) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if w != w && g != g {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g)", label, i, math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

// threeCallHead is attention's per-head computation as separate kernels,
// the reference for tensor.AttentionHead: the keys transposed, the scores
// over every key, the causal softmax writing every masked column, then a
// naive scores·V — every product, from +0, in ascending key order.
func threeCallHead(q, keys, values *tensor.Tensor, off, dk int, scale float32) []float32 {
	t, T := q.Dim(0), keys.Dim(0)
	keysT, scores := tensor.New(dk, T), tensor.New(t, T)
	tensor.TransposeCols(keysT, tensor.Cols{T: keys, Off: off, Width: dk})
	tensor.MatMulACols(nil, 1, tensor.Cols{T: q, Off: off, Width: dk}, keysT, scores)
	tensor.CausalSoftmaxRows(nil, 1, scores, scale, T-t)
	ctx := make([]float32, t*dk)
	vd, w := values.Data(), values.Dim(1)
	for i := 0; i < t; i++ {
		srow := scores.Row(i)
		for c := 0; c < dk; c++ {
			var sum float32
			for p, s := range srow {
				sum += s * vd[p*w+off+c]
			}
			ctx[i*dk+c] = sum
		}
	}
	return ctx
}

// headCase is one AttentionHead input: t query rows against T keys, the
// head at column offset off of width dk inside wider tensors.
type headCase struct {
	q, keys, values *tensor.Tensor
	off, dk         int
	scale           float32
}

// specials are the values headCase injects: NaN and ±Inf.
var specials = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}

// newHeadCase draws a case. Flag bit 0 puts a special into the head's
// value columns at a key some row masks (after T-t), bit 1 at a key every
// row sees, bit 2 makes query row t/2's scores all -Inf (its first head
// column -Inf and the others zero, against keys positive in that column),
// and bit 3 sprinkles specials over Q and K.
func newHeadCase(rng *rand.Rand, t, hist, dk int, flags uint8) headCase {
	T := t + hist
	heads := 2 + rng.Intn(2)
	off := dk * (1 + rng.Intn(heads-1))
	w := heads*dk + rng.Intn(3)
	c := headCase{
		q: tensor.RandN(rng, 1, t, w), keys: tensor.RandN(rng, 1, T, w), values: tensor.RandN(rng, 1, T, w),
		off: off, dk: dk, scale: float32(1 / math.Sqrt(float64(dk))),
	}
	pick := func() float32 { return specials[rng.Intn(len(specials))] }
	vd := c.values.Data()
	if flags&1 != 0 && t > 1 {
		p := T - t + 1 + rng.Intn(t-1)
		vd[p*w+off+rng.Intn(dk)] = pick()
	}
	if flags&2 != 0 {
		p := rng.Intn(T - t + 1)
		vd[p*w+off+rng.Intn(dk)] = pick()
	}
	if flags&4 != 0 {
		row := c.q.Row(t / 2)
		for j := 0; j < dk; j++ {
			row[off+j] = 0
		}
		row[off] = float32(math.Inf(-1))
		kd := c.keys.Data()
		for p := 0; p < T; p++ {
			kd[p*w+off] = float32(math.Abs(float64(kd[p*w+off]))) + 0.5
		}
	}
	if flags&8 != 0 {
		for _, d := range [][]float32{c.q.Data(), c.keys.Data()} {
			for i := range d {
				if rng.Intn(50) == 0 {
					d[i] = pick()
				}
			}
		}
	}
	return c
}

// check runs AttentionHead on both kernel paths into a window of a wider
// output and compares it with threeCallHead on the portable path, the
// reference; the columns outside the window stay as they were.
func (c headCase) check(t testing.TB, label string) {
	t.Helper()
	rows, w := c.q.Dim(0), c.q.Dim(1)
	var want []float32
	tensor.OnPath(false, func() { want = threeCallHead(c.q, c.keys, c.values, c.off, c.dk, c.scale) })
	for _, simd := range []bool{false, true} {
		out := tensor.New(rows, w)
		for i := range out.Data() {
			out.Data()[i] = float32(i)
		}
		var s tensor.HeadScratch
		tensor.OnPath(simd, func() {
			col := func(x *tensor.Tensor) tensor.Cols { return tensor.Cols{T: x, Off: c.off, Width: c.dk} }
			tensor.AttentionHead(&s, col(c.q), col(c.keys), col(c.values), col(out), c.scale)
		})
		got := make([]float32, 0, rows*c.dk)
		for i := 0; i < rows; i++ {
			row := out.Row(i)
			got = append(got, row[c.off:c.off+c.dk]...)
			for j, v := range row {
				if (j < c.off || j >= c.off+c.dk) && v != float32(i*w+j) {
					t.Fatalf("%s/simd=%v: column %d outside the head's window [%d, %d) written", label, simd, j, c.off, c.off+c.dk)
				}
			}
		}
		sameFloats(t, fmt.Sprintf("%s/simd=%v", label, simd), got, want)
	}
}

// TestAttentionHeadMatchesThreeCall: the fused per-head path —
// tensor.AttentionHead, four query rows at a time over the keys they see —
// is bit-identical on both kernel paths to the separate transpose, Q·Kᵀ,
// causal softmax and a naive scores·V on the portable path: for decode rows and chunks whose
// last row group is full or partial, head widths 1..24 at non-zero column
// offsets, with NaN and ±Inf in the values at masked and at visible keys,
// a query row whose scores are all -Inf, and specials in Q and K.
func TestAttentionHeadMatchesThreeCall(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, rows := range []int{1, 3, 4, 5, 128} {
		for dk := 1; dk <= 24; dk++ {
			for flags := uint8(0); flags < 16; flags++ {
				if rows == 128 && flags%5 != 0 {
					continue // the 128-row chunk takes a sample of the flag sets
				}
				hist := rng.Intn(40)
				c := newHeadCase(rng, rows, hist, dk, flags)
				c.check(t, fmt.Sprintf("t=%d/T=%d/dk=%d/flags=%04b", rows, rows+hist, dk, flags))
			}
		}
	}
}

// FuzzAttentionHead drives the same comparison from fuzzed shapes, seeds
// and special-value flags.
func FuzzAttentionHead(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(15), uint8(9), uint8(0))
	f.Add(int64(2), uint8(4), uint8(15), uint8(0), uint8(5))
	f.Add(int64(3), uint8(127), uint8(31), uint8(20), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, tr, dkr, hr, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows, dk, hist := 1+int(tr)%130, 1+int(dkr)%32, int(hr)%70
		c := newHeadCase(rng, rows, hist, dk, flags%16)
		c.check(t, fmt.Sprintf("t=%d/T=%d/dk=%d/flags=%04b", rows, rows+hist, dk, flags%16))
	})
}

// TestAttentionChunkBytesFlatInT gates a prefill chunk's allocation: what
// one chunk-shaped AttentionAt call allocates (Small model, serial, a
// 64-row chunk on top of a KV history with room for it) must not grow with
// the key count T. A per-call 64×T scores matrix would add 64·4 bytes per
// key; the per-worker head buffers come from a pool instead. Bytes are the
// median over calls, because the race detector's pool drops a quarter of
// what it is given.
func TestAttentionChunkBytesFlatInT(t *testing.T) {
	const rows = 64
	measure := func(hist int) (allocs, bytes float64) {
		cfg := Small()
		h := cfg.Hidden
		rng := rand.New(rand.NewSource(1))
		lw := NewLayerWeights(rng, cfg)
		cache := NewKVCache(1, 1, h)
		room := func() *tensor.Tensor {
			data := make([]float32, hist*h, (hist+rows)*h)
			copy(data, tensor.RandN(rng, 1, hist, h).Data())
			return tensor.FromSlice(data, hist, h)
		}
		hk, hv := room(), room()
		x0 := tensor.RandN(rng, 1, rows, h)
		x := []*tensor.Tensor{x0.Clone()}
		run := func() {
			cache.SetKV(0, 0, hk, hv) // the chunk's rows go into the spare room
			copy(x[0].Data(), x0.Data())
			AttentionAt(nil, 1, cfg, lw, cache, 0, 0, x)
		}
		// No collection while measuring: it would empty the buffer pool.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs = testing.AllocsPerRun(5, run)
		perCall := make([]float64, 9)
		var before, after goruntime.MemStats
		for i := range perCall {
			goruntime.ReadMemStats(&before)
			run()
			goruntime.ReadMemStats(&after)
			perCall[i] = float64(after.TotalAlloc - before.TotalAlloc)
		}
		sort.Float64s(perCall)
		return allocs, perCall[len(perCall)/2]
	}
	a128, b128 := measure(128 - rows)
	a512, b512 := measure(512 - rows)
	t.Logf("chunk AttentionAt: %.0f allocations, %.0f bytes at T=128; %.0f allocations, %.0f bytes at T=512", a128, b128, a512, b512)
	if matrix := float64(rows * (512 - 128) * 4); b512-b128 > matrix/4 {
		t.Errorf("a chunk's allocation grew by %.0f bytes from T=128 to T=512, want at most %.0f (a quarter of a %d×T scores matrix's growth)",
			b512-b128, matrix/4, rows)
	}
}
