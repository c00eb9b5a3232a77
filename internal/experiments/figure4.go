package experiments

import (
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// Figure4Row is one strategy's per-token time decomposition.
type Figure4Row struct {
	Label string
	// Seconds per generated token across all layers.
	Quant, Dequant, Other float64
}

// Total returns the summed per-token time.
func (r Figure4Row) Total() float64 { return r.Quant + r.Dequant + r.Other }

// Figure4Result reproduces Figure 4: the inference-time breakdown into
// quantization, dequantization, and other operations for the motivation
// strategies. The paper's headline: with attention offloading the
// (de)quantization overhead is exactly zero; without it, dequantization of
// the weights and old KV cache dominates the quantization of new rows.
type Figure4Result struct {
	Rows []Figure4Row
}

// Figure4 computes the breakdown under the FlexGen execution profile.
func Figure4() (*Figure4Result, error) {
	fg := perfmodel.FlexGenProfile()
	cases := []struct {
		label string
		strat perfmodel.Strategy
	}{
		{"cpu-attn, w4", perfmodel.Strategy{AttnOnCPU: true, WeightsGPUPct: 0.60, QuantWeights: true, WeightBits: 4, GroupSize: 64}},
		{"gpu-attn, w4", perfmodel.Strategy{WeightsGPUPct: 0.55, QuantWeights: true, WeightBits: 4, GroupSize: 64}},
		{"gpu-attn, kv4", perfmodel.Strategy{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64}},
		{"gpu-attn, w4+kv4", perfmodel.Strategy{WeightsGPUPct: 0.55, QuantWeights: true, WeightBits: 4, QuantKV: true, KVBits: 4, GroupSize: 64}},
	}
	out := &Figure4Result{}
	for _, c := range cases {
		e := estimate(c.strat, fg)
		b := e.Breakdown()
		out.Rows = append(out.Rows, Figure4Row{
			Label:   c.label,
			Quant:   b.QuantPerToken,
			Dequant: b.DequantPerToken,
			Other:   b.OtherPerToken,
		})
	}
	return out, nil
}

// Report renders the rows with percentage shares.
func (r *Figure4Result) Report() *Report {
	t := stats.NewTable("strategy", "quant s", "dequant s", "other s", "quant+dequant %")
	for _, row := range r.Rows {
		share := 0.0
		if tot := row.Total(); tot > 0 {
			share = (row.Quant + row.Dequant) / tot * 100
		}
		t.AddRowf("%s\t%.4f\t%.4f\t%.4f\t%.0f%%", row.Label, row.Quant, row.Dequant, row.Other, share)
	}
	return &Report{Title: "Figure 4: per-token time breakdown (OPT-30B, s=64, n=128, bls=640)", Table: t}
}

// Row returns the labeled row, or nil.
func (r *Figure4Result) Row(label string) *Figure4Row {
	for i := range r.Rows {
		if r.Rows[i].Label == label {
			return &r.Rows[i]
		}
	}
	return nil
}
