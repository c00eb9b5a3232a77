package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

func TestBuiltinConfigsValidate(t *testing.T) {
	for _, c := range []Config{OPT13B, OPT30B, OPT66B, LLaMA13B, LLaMA30B, LLaMA65B, Tiny(), Small()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("OPT-30B")
	if err != nil || c.Layers != 48 {
		t.Errorf("ByName(OPT-30B) = %+v, %v", c, err)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Error("ByName accepted unknown model")
	}
}

func TestOPT30BFootprintsMatchPaper(t *testing.T) {
	// §3.1: OPT-30B parameters take ~55 GB and the KV cache up to ~157 GB
	// for s=64, n=128, bls=640 in FP16. Allow ±20% because the paper does
	// not state exactly which matrices it counts.
	w := workload.PaperDefault()
	gb := func(b int64) float64 { return float64(b) / (1 << 30) }
	weights := gb(OPT30B.WeightBytes())
	if weights < 44 || weights > 66 {
		t.Errorf("OPT-30B weights = %.1f GB, want ~55 GB", weights)
	}
	kv := gb(OPT30B.KVCacheBytes(w))
	if kv < 126 || kv > 190 {
		t.Errorf("OPT-30B KV cache = %.1f GB, want ~157 GB", kv)
	}
}

func TestWeightsPerLayerFormula(t *testing.T) {
	c := Config{Name: "x", Layers: 1, Hidden: 10, FFN: 7, Heads: 2, Vocab: 5, BytesPerElem: 2}
	// 4·h1² + 2·h1·h2 = 400 + 140.
	if got := c.WeightsPerLayer(); got != 540 {
		t.Errorf("WeightsPerLayer = %d, want 540", got)
	}
	if got := c.TotalWeights(); got != 540+50 {
		t.Errorf("TotalWeights = %d, want 590", got)
	}
}

func TestKVCacheBytesGrowsLinearly(t *testing.T) {
	c := Tiny()
	w := workload.Job{PromptLen: 4, GenLen: 8, GPUBatch: 2, NumBatches: 1}
	b0 := c.KVCacheBytesAtToken(w, 0)
	b4 := c.KVCacheBytesAtToken(w, 4)
	b8 := c.KVCacheBytesAtToken(w, 8)
	if b4-b0 != b8-b4 {
		t.Errorf("KV growth not linear: %d, %d, %d", b0, b4, b8)
	}
	if b0 != int64(c.Layers)*0+2*int64(c.Hidden)*4*2*2 {
		t.Errorf("KV at token 0 = %d", b0)
	}
}

func TestKVCacheAppendAndViews(t *testing.T) {
	kc := NewKVCache(2, 3, 4)
	k := tensor.Full(1, 2, 4)
	v := tensor.Full(2, 2, 4)
	kc.Append(0, 1, k, v)
	if kc.SeqLen(0, 1) != 2 {
		t.Errorf("SeqLen = %d, want 2", kc.SeqLen(0, 1))
	}
	if kc.SeqLen(0, 0) != 0 || kc.SeqLen(1, 1) != 0 {
		t.Error("Append leaked into other slots")
	}
	kc.Append(0, 1, tensor.Full(3, 1, 4), tensor.Full(4, 1, 4))
	if kc.SeqLen(0, 1) != 3 {
		t.Errorf("SeqLen after second append = %d, want 3", kc.SeqLen(0, 1))
	}
	if got := kc.Keys(0, 1).At(2, 0); got != 3 {
		t.Errorf("appended key = %g, want 3", got)
	}
	if kc.Bytes() != (3*4+3*4)*4 {
		t.Errorf("Bytes = %d", kc.Bytes())
	}
}

func TestKVCacheAppendIsDefensiveCopy(t *testing.T) {
	kc := NewKVCache(1, 1, 2)
	k := tensor.Full(1, 1, 2)
	kc.Append(0, 0, k, k.Clone())
	k.Set(99, 0, 0)
	if kc.Keys(0, 0).At(0, 0) != 1 {
		t.Error("first Append aliased caller's tensor")
	}
}

// TestKVCacheTruncateAfterInPlaceAppend: rolling back appends that grew a
// slot in place restores the exact rows, and appends after the rollback do
// not overwrite rows that a view taken before it still shows.
func TestKVCacheTruncateAfterInPlaceAppend(t *testing.T) {
	const w = 4
	row := func(x float32) *tensor.Tensor { return tensor.Full(x, 1, w) }
	kc := NewKVCache(1, 1, w)
	// A fetched history: 3 rows with a spare row of capacity.
	hist := tensor.FromSlice(make([]float32, 3*w, 4*w), 3, w)
	for i := range hist.Data() {
		hist.Data()[i] = float32(i / w)
	}
	kc.SetKV(0, 0, hist, hist.Clone())
	mark := kc.SeqLens()
	for i := 0; i < 5; i++ {
		kc.Append(0, 0, row(float32(10+i)), row(float32(20+i)))
	}
	grown := kc.Keys(0, 0)
	kc.TruncateTo(mark)
	if kc.SeqLen(0, 0) != 3 || !kc.Keys(0, 0).Equal(hist) {
		t.Fatalf("truncated keys = %v, want the 3 fetched rows", kc.Keys(0, 0).Data())
	}
	kc.Append(0, 0, row(99), row(99))
	if got := grown.At(3, 0); got != 10 {
		t.Fatalf("append after rollback overwrote a pre-rollback view: row 3 = %g, want 10", got)
	}
	if got := kc.Keys(0, 0).At(3, 0); got != 99 || kc.SeqLen(0, 0) != 4 {
		t.Fatalf("re-appended row = %g (%d rows), want 99 (4 rows)", got, kc.SeqLen(0, 0))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Tiny()
	m1, err := NewModel(rand.New(rand.NewSource(42)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := NewModel(rand.New(rand.NewSource(42)), cfg)
	prompts := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
	g1, err := m1.Generate(nil, 1, prompts, 5)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := m2.Generate(nil, 1, prompts, 5)
	for i := range g1 {
		for j := range g1[i] {
			if g1[i][j] != g2[i][j] {
				t.Fatalf("generation not deterministic: %v vs %v", g1, g2)
			}
		}
	}
	for _, seq := range g1 {
		if len(seq) != 5 {
			t.Fatalf("generated %d tokens, want 5", len(seq))
		}
		for _, tok := range seq {
			if tok < 0 || tok >= cfg.Vocab {
				t.Fatalf("token %d outside vocab", tok)
			}
		}
	}
}

func TestGenerateParallelMatchesSerial(t *testing.T) {
	cfg := Tiny()
	pool := threadpool.MustNew(4)
	mk := func() *Model {
		m, err := NewModel(rand.New(rand.NewSource(7)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	prompts := [][]int{{1, 2, 3}, {9, 10, 11}}
	serial, err := mk().Generate(nil, 1, prompts, 4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := mk().Generate(pool, 4, prompts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		for j := range serial[i] {
			if serial[i][j] != par[i][j] {
				t.Fatalf("parallel generation differs: %v vs %v", serial, par)
			}
		}
	}
}

func TestPrefillThenDecodeMatchesJointPrefill(t *testing.T) {
	// Decoding token x after prefill [a b c] must equal prefilling
	// [a b c x] — the KV cache must be transparent.
	cfg := Tiny()
	mk := func() *Model {
		m, _ := NewModel(rand.New(rand.NewSource(3)), cfg)
		return m
	}
	prompt := []int{1, 2, 3}
	next := 4

	mA := mk()
	cacheA := NewKVCache(cfg.Layers, 1, cfg.Hidden)
	if _, err := mA.Prefill(nil, 1, cacheA, [][]int{prompt}); err != nil {
		t.Fatal(err)
	}
	hA := mA.DecodeStep(nil, 1, cacheA, []int{next}, len(prompt))

	mB := mk()
	cacheB := NewKVCache(cfg.Layers, 1, cfg.Hidden)
	hB, err := mB.Prefill(nil, 1, cacheB, [][]int{append(append([]int{}, prompt...), next)})
	if err != nil {
		t.Fatal(err)
	}

	var maxDiff float64
	for j := 0; j < cfg.Hidden; j++ {
		d := math.Abs(float64(hA.At(0, j) - hB.At(0, j)))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Errorf("incremental decode diverges from joint prefill by %g", maxDiff)
	}
}

func TestPrefillRejectsRaggedPrompts(t *testing.T) {
	cfg := Tiny()
	m, _ := NewModel(rand.New(rand.NewSource(1)), cfg)
	cache := NewKVCache(cfg.Layers, 2, cfg.Hidden)
	if _, err := m.Prefill(nil, 1, cache, [][]int{{1, 2}, {3}}); err == nil {
		t.Error("Prefill accepted ragged prompts")
	}
	if _, err := m.Prefill(nil, 1, cache, nil); err == nil {
		t.Error("Prefill accepted empty batch")
	}
}

func TestEmbedPanicsOnBadToken(t *testing.T) {
	cfg := Tiny()
	m, _ := NewModel(rand.New(rand.NewSource(1)), cfg)
	defer func() {
		if recover() == nil {
			t.Error("Embed accepted out-of-vocab token")
		}
	}()
	m.Embed([]int{cfg.Vocab}, 0)
}

func TestAttnAndMLPFlopsPositiveAndScale(t *testing.T) {
	w := workload.PaperDefault()
	f1 := OPT30B.AttnFlopsDecode(w, 64)
	f2 := OPT30B.AttnFlopsDecode(w, 128)
	if f1 <= 0 || f2 <= f1 {
		t.Errorf("attention FLOPs not increasing with sequence: %g, %g", f1, f2)
	}
	if OPT30B.MLPFlopsDecode(w) <= 0 {
		t.Error("MLP FLOPs non-positive")
	}
}
