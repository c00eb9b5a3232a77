package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/threadpool"
	"repro/internal/workload"
)

// FunctionalRow is one real engine run.
type FunctionalRow struct {
	Label string
	// Interconnect bytes actually moved.
	WeightUp, KVUp, KVDown int64
	// Quantization operations actually executed.
	QuantOps, DequantOps int64
	// MatchesReference reports bit-identical output to the unoffloaded
	// model (only expected for lossless policies).
	MatchesReference bool
	Lossless         bool
}

// FunctionalResult is the executable cross-check of the paper's §3.1
// observations: the same offloading × quantization strategies as Figure 3,
// run for real on a small transformer through the offloading engine, with
// actual byte counts instead of modeled ones.
type FunctionalResult struct {
	Model model.Config
	Work  workload.Job
	Rows  []FunctionalRow
}

// FunctionalCheck runs the engine matrix on the Small model, or on the Tiny
// model at Smoke.
func FunctionalCheck(s Scale) (*FunctionalResult, error) {
	cfg := model.Small()
	if s == Smoke {
		cfg = model.Tiny()
	}
	work := workload.Job{PromptLen: 8, GenLen: 8, GPUBatch: 2, NumBatches: 2}
	out := &FunctionalResult{Model: cfg, Work: work}

	const seed = 424242
	prompts := work.Prompts(rand.New(rand.NewSource(seed)), cfg.Vocab)
	pool := threadpool.MustNew(4)

	ref, err := seededModel(seed, cfg)
	if err != nil {
		return nil, err
	}
	want, err := ref.Generate(pool, 4, prompts, work.GenLen)
	if err != nil {
		return nil, err
	}

	kv4 := quant.Config{Bits: 4, GroupSize: 32}
	cases := []struct {
		label    string
		lossless bool
		pol      runtime.Policy
	}{
		{"cpu-attn, no quant", true, runtime.Policy{AttnOnCPU: true, IntraOp: 4, Prefetch: true, GPUBatch: work.GPUBatch}},
		{"gpu-attn, no quant", true, runtime.Policy{IntraOp: 4, Prefetch: true, GPUBatch: work.GPUBatch}},
		{"gpu-attn, fp16 host", false, runtime.Policy{IntraOp: 4, Prefetch: true, GPUBatch: work.GPUBatch, HostF16: true}},
		{"gpu-attn, kv4", false, runtime.Policy{QuantKV: true, KVCfg: kv4, IntraOp: 4, Prefetch: true, GPUBatch: work.GPUBatch}},
		{"gpu-attn, w4+kv4", false, runtime.Policy{QuantWeights: true, WeightCfg: kv4, QuantKV: true, KVCfg: kv4, IntraOp: 4, Prefetch: true, GPUBatch: work.GPUBatch}},
	}
	for _, c := range cases {
		eng, err := seededEngine(seed, cfg, c.pol, 1<<31, pool)
		if err != nil {
			return nil, fmt.Errorf("experiments: functional %q: %w", c.label, err)
		}
		got, err := eng.Generate(context.Background(), prompts, work.GenLen)
		if err != nil {
			return nil, fmt.Errorf("experiments: functional %q: %w", c.label, err)
		}
		matches := true
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				matches = false
			}
		}
		st := eng.Stats()
		out.Rows = append(out.Rows, FunctionalRow{
			Label:            c.label,
			WeightUp:         st.WeightUpBytes,
			KVUp:             st.KVUpBytes,
			KVDown:           st.KVDownBytes,
			QuantOps:         st.QuantizeOps,
			DequantOps:       st.DequantizeOps,
			MatchesReference: matches,
			Lossless:         c.lossless,
		})
	}
	return out, nil
}

// Row returns the labeled row, or nil.
func (r *FunctionalResult) Row(label string) *FunctionalRow {
	for i := range r.Rows {
		if r.Rows[i].Label == label {
			return &r.Rows[i]
		}
	}
	return nil
}

// Report renders the measured byte counts and gates the lossless policies
// on reproducing the reference model token for token.
func (r *FunctionalResult) Report() *Report {
	t := stats.NewTable("policy", "weights up MB", "KV up MB", "KV down MB", "quant ops", "dequant ops", "matches ref")
	for _, row := range r.Rows {
		t.AddRowf("%s\t%.2f\t%.2f\t%.2f\t%d\t%d\t%v",
			row.Label, float64(row.WeightUp)/1e6, float64(row.KVUp)/1e6, float64(row.KVDown)/1e6,
			row.QuantOps, row.DequantOps, row.MatchesReference)
	}
	rep := &Report{
		Title: fmt.Sprintf("Functional cross-check: real engine runs (%s, %s)", r.Model.Name, r.Work),
		Table: t,
		Notes: []string{
			"attention offloading moves zero KV bytes; KV quantization divides KV traffic ~6-8x;",
			"lossless policies reproduce the reference model token-for-token",
		},
	}
	for _, row := range r.Rows {
		if row.Lossless {
			rep.Gates = append(rep.Gates, holds(row.Label+" matches the reference", Exact, row.MatchesReference))
		}
	}
	return rep
}
