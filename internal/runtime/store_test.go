package runtime

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/threadpool"
	"repro/internal/xtrace"
)

// refFloatsCRC is the per-float reference floatsCRC must reproduce: every
// payload written to the hash one little-endian word at a time.
func refFloatsCRC(payloads ...[]float32) uint32 {
	h := crc32.NewIEEE()
	var buf [4]byte
	for _, xs := range payloads {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:])
		}
	}
	return h.Sum32()
}

func floatsFromBits(b ...uint32) []float32 {
	out := make([]float32, len(b))
	for i, x := range b {
		out[i] = math.Float32frombits(x)
	}
	return out
}

func TestFloatsCRCMatchesPerFloatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(rng.NormFloat64() * 1e3)
		}
		return out
	}
	payloads := [][]float32{
		nil,
		{},
		random(1),
		random(7),
		random(129),
		floatsFromBits(0x00000000, 0x80000000),
		floatsFromBits(0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001),
		floatsFromBits(0x7f800000, 0xff800000, 0x4b800000, 0x00000001, 0x80000001),
	}
	for i, a := range payloads {
		if got, want := floatsCRC(a), refFloatsCRC(a); got != want {
			t.Fatalf("payload %d: floatsCRC %08x, per-float reference %08x", i, got, want)
		}
		// Two payloads hash as their concatenation, as a K/V chunk does.
		b := payloads[(i+3)%len(payloads)]
		if got, want := floatsCRC(a, b), refFloatsCRC(a, b); got != want {
			t.Fatalf("payloads %d+%d: floatsCRC %08x, per-float reference %08x", i, (i+3)%len(payloads), got, want)
		}
	}
}

// TestInjectedCorruptionDetectedOnNonFinitePayloads: the in-flight
// corruption of a raw or f16 chunk must change the staged bits whatever the
// first element holds. Adding 1 leaves NaN, ±Inf and |x| ≥ 2^24 unchanged,
// so a fault injected that way passed verification.
func TestInjectedCorruptionDetectedOnNonFinitePayloads(t *testing.T) {
	firsts := []float32{
		float32(math.NaN()),
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		1 << 24,
		-1e30,
	}
	for _, f16 := range []bool{false, true} {
		for _, first := range firsts {
			st, err := NewKVStore(1, 1, false, quant.Config{}, f16)
			if err != nil {
				t.Fatal(err)
			}
			k := tensor.FromSlice([]float32{first, 2, 3, 4}, 1, 4)
			if _, err := st.Append(0, 0, k, tensor.Full(1, 1, 4)); err != nil {
				t.Fatal(err)
			}
			st.UseFaults(faults.MustNew(1, map[faults.Site]faults.Rule{
				faults.KVCorruption: {Prob: 1, Max: 1},
			}))
			_, _, _, err = st.Fetch(0, 0)
			var ferr *faults.Error
			if !errors.As(err, &ferr) || ferr.Site != faults.KVCorruption || !faults.IsTransient(err) {
				t.Fatalf("f16=%v first=%g: injected corruption gave %v, want a transient kv-corruption error", f16, first, err)
			}
			// The host copy is intact: the retry verifies and sees the value.
			fk, _, _, err := st.Fetch(0, 0)
			if err != nil {
				t.Fatalf("f16=%v first=%g: retry failed: %v", f16, first, err)
			}
			want := first
			if f16 {
				want = tensor.F16FromFloat32(first).Float32()
			}
			if got := fk.Data()[0]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("f16=%v: retried first element %g, want %g", f16, got, want)
			}
		}
	}
}

// TestFetchAllocsIndependentOfChunkCount pins the one-pass staging: a
// fetch allocates its two destinations and the tensor headers, however many
// chunks the slot holds — no per-chunk tensors, concatenations, or pool
// fork-joins for small quantized chunks.
func TestFetchAllocsIndependentOfChunkCount(t *testing.T) {
	const hidden = 128
	pool := threadpool.MustNew(2)
	for _, quantize := range []bool{false, true} {
		allocs := func(chunks int) float64 {
			st, err := NewKVStore(1, 1, quantize, quant.Config{Bits: 4, GroupSize: 64}, false)
			if err != nil {
				t.Fatal(err)
			}
			st.UsePool(pool, 2)
			rng := rand.New(rand.NewSource(int64(chunks)))
			for i := 0; i < chunks; i++ {
				k, v := kvRow(rng, hidden)
				if _, err := st.Append(0, 0, k, v); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(20, func() {
				if _, _, _, err := st.Fetch(0, 0); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, many := allocs(8), allocs(256); few != many {
			t.Fatalf("quantize=%v: Fetch allocates %v times at 8 chunks but %v at 256", quantize, few, many)
		}
	}
}

// TestAppendOntoFetchedSlotInPlace: the decode step's one-row append lands
// in the spare row a fetch leaves, without copying the history.
func TestAppendOntoFetchedSlotInPlace(t *testing.T) {
	const hidden = 16
	for _, quantize := range []bool{false, true} {
		st, err := NewKVStore(1, 1, quantize, quant.Config{Bits: 4, GroupSize: 8}, false)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 5; i++ {
			k, v := kvRow(rng, hidden)
			if _, err := st.Append(0, 0, k, v); err != nil {
				t.Fatal(err)
			}
		}
		k, v, _, err := st.Fetch(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		kc := model.NewKVCache(1, 1, hidden)
		kc.SetKV(0, 0, k, v)
		nk, nv := kvRow(rng, hidden)
		kc.Append(0, 0, nk, nv)
		gk, gv := kc.Keys(0, 0), kc.Values(0, 0)
		if &gk.Data()[0] != &k.Data()[0] || &gv.Data()[0] != &v.Data()[0] {
			t.Fatalf("quantize=%v: one-row append onto a fetched slot allocated new storage", quantize)
		}
		if gk.Dim(0) != 6 || !gk.SliceRows(0, 5).Equal(k) || !gk.SliceRows(5, 6).Equal(nk) || !gv.SliceRows(5, 6).Equal(nv) {
			t.Fatalf("quantize=%v: appended history has wrong rows", quantize)
		}
		if kc.Bytes() != 2*6*hidden*4 {
			t.Fatalf("quantize=%v: cache charges %d bytes, want %d (rows, not capacity)", quantize, kc.Bytes(), 2*6*hidden*4)
		}
	}
}

// fetchOracle rebuilds (layer, seq)'s history the way the store did before
// one-pass staging: each chunk materialized on its own, then concatenated
// chunk by chunk. It reads the chunk table directly and skips verification.
func fetchOracle(st *KVStore, layer, seq int) (k, v *tensor.Tensor, bytes int64) {
	st.mu.RLock()
	chunks := st.chunks[layer][seq]
	st.mu.RUnlock()
	for _, c := range chunks {
		bytes += c.transferBytes()
		var ck, cv *tensor.Tensor
		switch {
		case c.qk != nil:
			ck, cv = quant.Dequantize(c.qk), quant.Dequantize(c.qv)
		case c.hk != nil:
			ck, cv = c.hk.ToFloat32(), c.hv.ToFloat32()
		default:
			ck, cv = c.k.Clone(), c.v.Clone()
		}
		if k == nil {
			k, v = ck, cv
			continue
		}
		k, v = tensor.ConcatRows(k, ck), tensor.ConcatRows(v, cv)
	}
	return k, v, bytes
}

// checkFetchMatchesOracle compares FetchTimed with fetchOracle bit for bit.
func checkFetchMatchesOracle(t *testing.T, st *KVStore, layer, seq int) {
	t.Helper()
	k, v, bytes, d, err := st.FetchTimed(layer, seq)
	if err != nil {
		t.Fatalf("(layer %d, seq %d): %v", layer, seq, err)
	}
	wk, wv, wbytes := fetchOracle(st, layer, seq)
	if bytes != wbytes || d < 0 {
		t.Fatalf("(layer %d, seq %d): %d bytes, dequant %v; oracle %d bytes", layer, seq, bytes, d, wbytes)
	}
	if (k == nil) != (wk == nil) {
		t.Fatalf("(layer %d, seq %d): fetched %v, oracle %v", layer, seq, k != nil, wk != nil)
	}
	if k == nil {
		return
	}
	if got, want := k.Dim(0), st.SeqLen(layer, seq); got != want {
		t.Fatalf("(layer %d, seq %d): %d rows, SeqLen %d", layer, seq, got, want)
	}
	for _, p := range [][2]*tensor.Tensor{{k, wk}, {v, wv}} {
		got, want := p[0], p[1]
		if got.Dim(0) != want.Dim(0) || got.Dim(1) != want.Dim(1) {
			t.Fatalf("(layer %d, seq %d): shape %v, oracle %v", layer, seq, got.Shape(), want.Shape())
		}
		for i, x := range got.Data() {
			if math.Float32bits(x) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("(layer %d, seq %d): element %d = %08x, oracle %08x", layer, seq, i,
					math.Float32bits(x), math.Float32bits(want.Data()[i]))
			}
		}
	}
}

// TestFetchTimedMixedSlots: the pressure ladder's per-slot override leaves
// one slot of a raw store with quantized, raw, then quantized chunks; the
// one-pass fetch must stage that mixed history exactly as materializing and
// concatenating each chunk does.
func TestFetchTimedMixedSlots(t *testing.T) {
	cfg := model.Tiny()
	q4 := quant.Config{Bits: 4, GroupSize: 16}
	st, err := NewKVStore(cfg.Layers, 2, false, quant.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i, c := range []*quant.Config{&q4, nil, &q4} {
		if err := st.SetSlotQuant(0, c); err != nil {
			t.Fatal(err)
		}
		rows := 2 + i
		for l := 0; l < cfg.Layers; l++ {
			k := tensor.RandN(rng, 1, rows, cfg.Hidden)
			v := tensor.RandN(rng, 1, rows, cfg.Hidden)
			if _, err := st.Append(l, 0, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for l := 0; l < cfg.Layers; l++ {
		if st.SeqLen(l, 0) != 2+3+4 {
			t.Fatalf("layer %d: %d rows, want 9", l, st.SeqLen(l, 0))
		}
		checkFetchMatchesOracle(t, st, l, 0)
		checkFetchMatchesOracle(t, st, l, 1)
	}
}

// TestFetchTimedDequantOnly pins the dequant_kv attribution fix at its
// source: FetchTimed's duration covers only the dequantization kernels — a
// non-quantized (f16) store reports zero even though it materializes and
// transfers every chunk, and a quantized store reports a positive duration
// bounded by the call's wall time.
func TestFetchTimedDequantOnly(t *testing.T) {
	cfg := model.Tiny()
	rng := rand.New(rand.NewSource(8))
	mk := func(quantize, f16 bool) *KVStore {
		st, err := NewKVStore(cfg.Layers, 1, quantize, quant.Config{Bits: 4, GroupSize: 16}, f16)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			k := tensor.RandN(rng, 1, 4, cfg.Hidden)
			v := tensor.RandN(rng, 1, 4, cfg.Hidden)
			if _, err := st.Append(0, 0, k, v); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}

	f16st := mk(false, true)
	if _, _, _, d, err := f16st.FetchTimed(0, 0); err != nil || d != 0 {
		t.Fatalf("f16 store FetchTimed dequant = %v err = %v, want 0 and nil", d, err)
	}

	qst := mk(true, false)
	t0 := time.Now()
	_, _, _, d, err := qst.FetchTimed(0, 0)
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("quantized store FetchTimed dequant = %v, want > 0", d)
	}
	if d > wall {
		t.Fatalf("dequant time %v exceeds the whole fetch wall time %v", d, wall)
	}
}

// TestDequantKVAttributionSplit is the engine-level regression for the
// dequant_kv over-attribution bug: every recorded dequant_kv span must nest
// inside a load_kv span of the same layer, and the total dequant_kv time
// must be a strict subset of load_kv — the span no longer brackets the whole
// fetch loop with its allocation, checksum, and staging work.
func TestDequantKVAttributionSplit(t *testing.T) {
	pol := Policy{IntraOp: 1, QuantKV: true, KVCfg: quant.Config{Bits: 4, GroupSize: 16}}
	eng, err := NewEngine(tinyModel(t, 9), pol, bigArena, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := xtrace.NewRecorder(0)
	eng.SetTracer(rec)
	// A longer decode gives every slot many chunks, so per-chunk overheads
	// (alloc, CRC verify, staging) dominate the loop body.
	if _, err := eng.Generate(context.Background(), testPrompts(), 10); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	var dequant, loadKV time.Duration
	var nd int
	for _, s := range spans {
		switch s.Name {
		case xtrace.TaskDequantKV:
			nd++
			dequant += s.Dur
			contained := false
			for _, ls := range spans {
				if ls.Name == xtrace.TaskLoadKV && ls.Layer == s.Layer &&
					s.Start >= ls.Start && s.End() <= ls.End() {
					contained = true
					break
				}
			}
			if !contained {
				t.Fatalf("dequant_kv span (layer %d, start %v, dur %v) not nested in any load_kv span",
					s.Layer, s.Start, s.Dur)
			}
		case xtrace.TaskLoadKV:
			loadKV += s.Dur
		}
	}
	if nd == 0 {
		t.Fatal("no dequant_kv spans recorded under QuantKV")
	}
	if dequant >= loadKV {
		t.Fatalf("dequant_kv total %v >= load_kv total %v — span covers more than the dequant kernels", dequant, loadKV)
	}
	// The attribution view must agree: load_kv keeps the larger share of the
	// covered wall-clock.
	attr := xtrace.Attribution(spans, xtrace.TaskLoadKV, xtrace.TaskDequantKV)
	if attr[xtrace.TaskDequantKV] > attr[xtrace.TaskLoadKV] {
		t.Fatalf("attribution gives dequant_kv %v > load_kv %v", attr[xtrace.TaskDequantKV], attr[xtrace.TaskLoadKV])
	}
}
