package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Figure9Series is one model's weak-scaling curves.
type Figure9Series struct {
	Model     string
	LMOffload []pipeline.Result
	FlexGen   []pipeline.Result
}

// Figure9Result reproduces Figure 9: multi-GPU weak scaling of OPT-13B and
// LLaMA-13B (s=256, n=64) on the 4xV100 platform, LM-Offload vs FlexGen.
type Figure9Result struct {
	Series []Figure9Series
	// MaxGainPct is the largest LM-Offload advantage (paper: up to 327%,
	// 112% average).
	MaxGainPct float64
	AvgGainPct float64
	// GapGrowth is (gap at 4 GPUs) / (gap at 1 GPU) for the first series
	// (paper: up to 13.9x).
	GapGrowth float64
}

// Figure9 runs the weak-scaling study.
func Figure9() (*Figure9Result, error) {
	plat := v100s()
	out := &Figure9Result{}
	var gains []float64
	for _, mod := range []model.Config{model.OPT13B, model.LLaMA13B} {
		lm, err := pipeline.WeakScaling(plat, mod, pipeline.LMOffloadConfig, 4)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 9 %s: %w", mod.Name, err)
		}
		fg, err := pipeline.WeakScaling(plat, mod, pipeline.FlexGenConfig, 4)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 9 %s: %w", mod.Name, err)
		}
		out.Series = append(out.Series, Figure9Series{Model: mod.Name, LMOffload: lm, FlexGen: fg})
		for i := range lm {
			gain := (lm[i].Throughput/fg[i].Throughput - 1) * 100
			gains = append(gains, gain)
			if gain > out.MaxGainPct {
				out.MaxGainPct = gain
			}
		}
	}
	out.AvgGainPct = stats.Mean(gains)
	s0 := out.Series[0]
	gap1 := s0.LMOffload[0].Throughput - s0.FlexGen[0].Throughput
	gap4 := s0.LMOffload[3].Throughput - s0.FlexGen[3].Throughput
	if gap1 > 0 {
		out.GapGrowth = gap4 / gap1
	}
	return out, nil
}

// Report renders the scaling curves.
func (r *Figure9Result) Report() *Report {
	t := stats.NewTable("model", "GPUs", "LM-Offload tok/s", "FlexGen tok/s", "gain")
	for _, s := range r.Series {
		for i := range s.LMOffload {
			gain := (s.LMOffload[i].Throughput/s.FlexGen[i].Throughput - 1) * 100
			t.AddRowf("%s\t%d\t%.1f\t%.1f\t%.0f%%",
				s.Model, s.LMOffload[i].GPUs, s.LMOffload[i].Throughput, s.FlexGen[i].Throughput, gain)
		}
	}
	rep := &Report{Title: "Figure 9: multi-GPU weak scaling (4x V100, s=256, n=64)", Table: t}
	rep.note("max gain %.0f%% (paper: up to 327%%), average %.0f%% (paper: 112%%), gap growth 1->4 GPUs %.1fx (paper: up to 13.9x)",
		r.MaxGainPct, r.AvgGainPct, r.GapGrowth)
	return rep
}
