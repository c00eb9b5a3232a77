package experiments

import (
	"context"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/runtime"
	"repro/internal/serve"
)

// TestSoloReferenceQuantizedMatchesEngine: for a request the serving ladder
// stored quantized, soloReference equals Engine.Generate on an engine that
// quantizes its KV the same way, as Session's doc promises. The prompt and
// budget are ones where quantized and raw KV yield different tokens, so a
// reference that ignored kvq would fail.
func TestSoloReferenceQuantizedMatchesEngine(t *testing.T) {
	cfg := model.Tiny()
	kvq := serve.LadderKV()
	prompt := []int{3, 17, 42, 99, 5, 64, 120, 7}
	const budget = 24
	eng, err := seededEngine(servingSeed, cfg, runtime.Policy{IntraOp: 1, QuantKV: true, KVCfg: kvq}, 1<<30, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Generate(context.Background(), [][]int{prompt}, budget)
	if err != nil {
		t.Fatal(err)
	}
	want := out[0]
	raw, err := soloReference(servingSeed, cfg, prompt, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(raw, want) {
		t.Fatalf("raw and quantized KV give the same tokens %v; the prompt does not tell them apart", want)
	}
	got, err := soloReference(servingSeed, cfg, prompt, budget, &kvq)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("soloReference with kvq = %v, want Engine.Generate's %v", got, want)
	}
}
