package perfmodel

import (
	"math"
	"testing"
	"time"
)

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

func TestChunkPrefillPartsRecoversMonolithic(t *testing.T) {
	// A single chunk covering the whole prompt IS the monolithic prefill:
	// the parts must match TPrefill's inputs exactly.
	cases := []Strategy{
		{WeightsGPUPct: 0.55},
		{AttnOnCPU: true, WeightsGPUPct: 0.55},
		{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64},
	}
	for _, strat := range cases {
		e := fixture(t, strat, FlexGenProfile())
		s := e.Work.PromptLen
		lw, comp, kv := e.ChunkPrefillParts(0, s)
		wantComp, wantKV := e.PrefillParts()
		if relDiff(lw, e.WeightUpTime()) > 1e-12 {
			t.Errorf("%v: loadWeight %.9g != WeightUpTime %.9g", strat, lw, e.WeightUpTime())
		}
		if relDiff(comp, wantComp) > 1e-9 {
			t.Errorf("%v: compute %.9g != monolithic %.9g", strat, comp, wantComp)
		}
		if relDiff(kv, wantKV) > 1e-9 {
			t.Errorf("%v: kvDown %.9g != monolithic %.9g", strat, kv, wantKV)
		}
	}
}

func TestChunkedPrefillTasksInvariants(t *testing.T) {
	e := fixture(t, Strategy{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64}, FlexGenProfile())
	s := e.Work.PromptLen
	l := float64(e.Mod.Layers)
	mono := e.ChunkedPrefillTasks(0)
	for _, chunk := range []int{1, 3, 7, 16, s, s + 100} {
		tt := e.ChunkedPrefillTasks(chunk)
		chunks := e.ChunkedPrefillChunks(chunk)
		wantChunks := (s + chunk - 1) / chunk
		if chunk >= s || chunk <= 0 {
			wantChunks = 1
		}
		if chunks != wantChunks {
			t.Errorf("chunk=%d: chunks=%d want %d", chunk, chunks, wantChunks)
		}
		// KV offload and weight streaming are row/chunk proportional.
		if relDiff(tt.StoreCache, mono.StoreCache) > 1e-9 {
			t.Errorf("chunk=%d: StoreCache %.9g != monolithic %.9g (row-proportional)", chunk, tt.StoreCache, mono.StoreCache)
		}
		wantLW := e.WeightUpTime() * l * float64(chunks)
		if relDiff(tt.LoadWeight, wantLW) > 1e-9 {
			t.Errorf("chunk=%d: LoadWeight %.9g want %.9g", chunk, tt.LoadWeight, wantLW)
		}
		// Chunked causal attention never recomputes rows, so total compute
		// can only shrink as chunks get smaller (the last chunk attends over
		// the full prompt; earlier chunks attend over less).
		if tt.Compute > mono.Compute*(1+1e-12) {
			t.Errorf("chunk=%d: Compute %.9g exceeds monolithic %.9g", chunk, tt.Compute, mono.Compute)
		}
		if chunk < s && tt.Compute >= mono.Compute {
			t.Errorf("chunk=%d: Compute %.9g should be strictly below monolithic %.9g", chunk, tt.Compute, mono.Compute)
		}
		// Ideal-overlap makespan is bounded by the busiest kind below and the
		// serial sum above.
		mk := e.TPrefillChunked(chunk)
		maxKind := math.Max(tt.Compute, math.Max(tt.LoadWeight, tt.StoreCache))
		if mk < maxKind-1e-9 || mk > tt.Sum()+1e-9 {
			t.Errorf("chunk=%d: makespan %.9g outside [%.9g, %.9g]", chunk, mk, maxKind, tt.Sum())
		}
	}
}

func TestPredictChunked(t *testing.T) {
	m := &PrefillCostModel{}
	if m.PredictChunked(100, 10) != 0 {
		t.Fatal("prediction before ready should be zero")
	}
	// Synthesize a perfectly linear cost: 10ms fixed + 1ms/token.
	for _, n := range []int{10, 20, 40, 80, 160, 320, 640, 1280, 50, 200} {
		m.Observe(n, 10*time.Millisecond+time.Duration(n)*time.Millisecond)
	}
	if !m.Ready() {
		t.Fatal("model should be ready")
	}
	mono := m.Predict(100)
	if d := mono - 110*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("Predict(100) = %v, want ~110ms", mono)
	}
	// 100 tokens in chunks of 25 → 4 chunks → 4x the fixed cost.
	got := m.PredictChunked(100, 25)
	if d := got - 140*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("PredictChunked(100, 25) = %v, want ~140ms", got)
	}
	if got <= mono {
		t.Fatalf("chunked prediction %v should exceed monolithic %v (extra fixed costs)", got, mono)
	}
	// Degenerate chunk sizes collapse to the monolithic prediction.
	if m.PredictChunked(100, 0) != mono {
		t.Error("chunk<=0 should fall back to Predict")
	}
	if m.PredictChunked(100, 100) != mono {
		t.Error("chunk>=tokens should fall back to Predict")
	}
	if m.PredictChunked(0, 25) != 0 {
		t.Error("zero tokens should predict zero")
	}
}

func TestChunkStateBytes(t *testing.T) {
	a := AdmissionModel{HiddenDim: 64, BytesPerElem: 4}
	// 2 (K+V) * layers * tokens * hidden * bytes
	if got, want := a.ChunkStateBytes(100, 4), int64(2*4*100*64*4); got != want {
		t.Errorf("ChunkStateBytes = %d, want %d", got, want)
	}
	if a.ChunkStateBytes(0, 4) != 0 || a.ChunkStateBytes(100, 0) != 0 {
		t.Error("zero tokens or layers should cost zero")
	}
	if a.ChunkStateBytes(-5, 4) != 0 || a.ChunkStateBytes(100, -1) != 0 {
		t.Error("negative inputs should clamp to zero")
	}
	big := AdmissionModel{HiddenDim: math.MaxInt32, BytesPerElem: math.MaxInt32}
	if got := big.ChunkStateBytes(math.MaxInt32, math.MaxInt32); got != math.MaxInt64 {
		t.Errorf("overflow should saturate, got %d", got)
	}
}
