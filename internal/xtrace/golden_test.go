package xtrace_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/threadpool"
	"repro/internal/workload"
	"repro/internal/xtrace"
)

var update = flag.Bool("update", false, "rewrite golden trace-structure files")

// traceStructure reduces a span set to its timing-free shape: span counts
// per lane|name, plus the set of same-lane (parent>child) containment pairs
// (e.g. dequant_weight nested inside load_weight). Times vary run to run;
// the structure — which spans exist, how many, and what nests where — must
// not, so it is what the golden files pin.
func traceStructure(spans []xtrace.Span) string {
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Lane+"|"+s.Name]++
	}
	nests := map[string]bool{}
	byLane := map[string][]xtrace.Span{}
	for _, s := range spans {
		byLane[s.Lane] = append(byLane[s.Lane], s)
	}
	for lane, ls := range byLane {
		for _, child := range ls {
			for _, parent := range ls {
				if parent.Name == child.Name || parent.Dur <= child.Dur {
					continue
				}
				if child.Start >= parent.Start && child.End() <= parent.End() {
					nests[fmt.Sprintf("nest %s|%s>%s", lane, parent.Name, child.Name)] = true
				}
			}
		}
	}
	var lines []string
	for k, n := range counts {
		lines = append(lines, fmt.Sprintf("count %s %d", k, n))
	}
	for k := range nests {
		lines = append(lines, k)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("trace structure diverged from %s (run with -update after intentional changes)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenEngineTrace pins the span structure of a deterministic
// single-threaded engine run with weight and KV quantization enabled: which
// tasks are emitted on which lanes, how many of each (per layer per step),
// and the quant-phase nesting (dequant_weight inside load_weight,
// dequant_kv inside load_cache, quant_kv inside store_cache).
func TestGoldenEngineTrace(t *testing.T) {
	cfg := model.Tiny()
	m, err := model.NewModel(rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	q4 := quant.Config{Bits: 4, GroupSize: 32}
	pol := runtime.Policy{IntraOp: 1, QuantWeights: true, WeightCfg: q4, QuantKV: true, KVCfg: q4}
	eng, err := runtime.NewEngine(m, pol, 1<<31, threadpool.MustNew(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := xtrace.NewRecorder(0)
	eng.SetTracer(rec)
	w := workload.Job{PromptLen: 4, GenLen: 3, GPUBatch: 2, NumBatches: 1}
	prompts := w.Prompts(rand.New(rand.NewSource(7)), cfg.Vocab)
	if _, err := eng.Generate(context.Background(), prompts, w.GenLen); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "engine_trace_golden.txt", traceStructure(rec.Spans()))
}

// TestGoldenGroupStagingTrace pins the span structure of a block staged in
// GPU batches with prefetch — the offline w4/kv4 scenario in miniature: four
// prompts in GPU batches of two give two load_cache spans and two compute
// spans per (layer, decode step), with each batch's KV load overlapping the
// previous batch's compute.
func TestGoldenGroupStagingTrace(t *testing.T) {
	cfg := model.Tiny()
	m, err := model.NewModel(rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	q4 := quant.Config{Bits: 4, GroupSize: 32}
	pol := runtime.Policy{IntraOp: 1, QuantWeights: true, WeightCfg: q4, QuantKV: true, KVCfg: q4,
		GPUBatch: 2, Prefetch: true}
	eng, err := runtime.NewEngine(m, pol, 1<<31, threadpool.MustNew(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := xtrace.NewRecorder(0)
	eng.SetTracer(rec)
	w := workload.Job{PromptLen: 4, GenLen: 3, GPUBatch: 4, NumBatches: 1}
	prompts := w.Prompts(rand.New(rand.NewSource(7)), cfg.Vocab)
	if _, err := eng.Generate(context.Background(), prompts, w.GenLen); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "group_staging_trace_golden.txt", traceStructure(rec.Spans()))
}

// TestGoldenChunkedSessionTrace pins the span structure of a deterministic
// single-threaded session interleaving decode steps with a chunked prefill:
// one prefill_chunk span per increment (three chunks for a 10-token prompt
// at 4 tokens/chunk), decode steps continuing throughout, and no monolithic
// prefill span for the chunked slot.
func TestGoldenChunkedSessionTrace(t *testing.T) {
	cfg := model.Tiny()
	m, err := model.NewModel(rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := runtime.NewEngine(m, runtime.Policy{IntraOp: 1}, 1<<31, threadpool.MustNew(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := xtrace.NewRecorder(0)
	eng.SetTracer(rec)
	sess, err := eng.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	mkPrompt := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = rng.Intn(cfg.Vocab)
		}
		return p
	}
	if _, err := sess.Admit(ctx, 0, mkPrompt(4)); err != nil {
		t.Fatal(err)
	}
	if err := sess.BeginPrefill(1, mkPrompt(10), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // 10 tokens at 4/chunk: exactly three chunks
		if _, err := sess.Step(ctx); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := sess.PrefillChunk(ctx, 1, 4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // both slots decode together
		if _, err := sess.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "chunked_trace_golden.txt", traceStructure(rec.Spans()))
}

// TestGoldenSimTrace pins the span structure of a simulated decode schedule
// under a quantized offloading strategy: virtual time is exact, so counts
// are a strict function of (layers, steps, strategy) and any drift means
// the DES task construction changed.
func TestGoldenSimTrace(t *testing.T) {
	est, err := perfmodel.New(
		hw.SingleGPUA100(), model.Tiny(),
		workload.Job{PromptLen: 8, GenLen: 4, GPUBatch: 4, NumBatches: 2},
		perfmodel.Strategy{WeightsGPUPct: 0.5, QuantWeights: true, WeightBits: 4, QuantKV: true, KVBits: 4, GroupSize: 32},
		perfmodel.LMOffloadProfile(),
	)
	if err != nil {
		t.Fatal(err)
	}
	rec := xtrace.NewRecorder(0)
	if _, err := sim.SimulateDecodeTraced(est, 2, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("sim run recorded no spans")
	}
	checkGolden(t, "sim_trace_golden.txt", traceStructure(rec.Spans()))
}
