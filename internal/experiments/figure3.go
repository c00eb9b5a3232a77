package experiments

import (
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Figure3Bar is one offloading × quantization strategy of the motivation
// study, with throughput from both the analytical model and the
// discrete-event simulator.
type Figure3Bar struct {
	Label    string
	Strategy perfmodel.Strategy
	// PaperTput is the paper's measured value (tokens/s) where reported.
	PaperTput float64
	// ModelTput is the analytical model's prediction.
	ModelTput float64
	// SimTput is the discrete-event simulation.
	SimTput float64
}

// Figure3Result reproduces Figure 3: throughput under various offloading and
// quantization strategies for OPT-30B (s=64, n=128, bsz=64, bls=640).
type Figure3Result struct {
	Bars []Figure3Bar
}

// Figure3 runs the motivation study under the FlexGen execution profile.
func Figure3() (*Figure3Result, error) {
	fg := perfmodel.FlexGenProfile()
	cases := []struct {
		label string
		paper float64
		strat perfmodel.Strategy
	}{
		{"cpu-attn, no quant", 41, perfmodel.Strategy{AttnOnCPU: true, WeightsGPUPct: 0.60}},
		{"cpu-attn, w4", 32, perfmodel.Strategy{AttnOnCPU: true, WeightsGPUPct: 0.60, QuantWeights: true, WeightBits: 4, GroupSize: 64}},
		{"gpu-attn, no quant", 46, perfmodel.Strategy{WeightsGPUPct: 0.55}},
		{"gpu-attn, w4", 35, perfmodel.Strategy{WeightsGPUPct: 0.55, QuantWeights: true, WeightBits: 4, GroupSize: 64}},
		{"gpu-attn, kv4", 82, perfmodel.Strategy{WeightsGPUPct: 0.55, QuantKV: true, KVBits: 4, GroupSize: 64}},
		{"gpu-attn, w4+kv4", 55, perfmodel.Strategy{WeightsGPUPct: 0.55, QuantWeights: true, WeightBits: 4, QuantKV: true, KVBits: 4, GroupSize: 64}},
	}
	out := &Figure3Result{}
	for _, c := range cases {
		e := estimate(c.strat, fg)
		simRes, err := sim.SimulateDecode(e, 3)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 3 %q: %w", c.label, err)
		}
		out.Bars = append(out.Bars, Figure3Bar{
			Label:     c.label,
			Strategy:  c.strat,
			PaperTput: c.paper,
			ModelTput: e.Throughput(),
			SimTput:   simRes.Throughput,
		})
	}
	return out, nil
}

// Report renders the figure as a table.
func (r *Figure3Result) Report() *Report {
	t := stats.NewTable("strategy", "paper tok/s", "model tok/s", "sim tok/s")
	for _, bar := range r.Bars {
		t.AddRowf("%s\t%.0f\t%.1f\t%.1f", bar.Label, bar.PaperTput, bar.ModelTput, bar.SimTput)
	}
	return &Report{Title: "Figure 3: throughput by offloading x quantization strategy (OPT-30B, s=64, n=128, bls=640)", Table: t}
}

// Bar returns the named bar, or nil.
func (r *Figure3Result) Bar(label string) *Figure3Bar {
	for i := range r.Bars {
		if r.Bars[i].Label == label {
			return &r.Bars[i]
		}
	}
	return nil
}
