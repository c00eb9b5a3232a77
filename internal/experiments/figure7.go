package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/model"
	"repro/internal/stats"
)

// Figure7Point compares FlexGen with LM-Offload's quantization-aware policy
// running WITHOUT parallelism control (the §5.3 ablation isolating the
// performance-model contribution).
type Figure7Point struct {
	Model      string
	GenLen     int
	FlexGen    float64
	NoPC       float64
	GainPct    float64 // (NoPC/FlexGen - 1) * 100
	WeightsGPU float64 // the no-PC policy's wg, showing "more weights on GPU"
}

// Figure7Result reproduces Figure 7 ("Effective Quantization"): the
// quantization-aware performance model alone beats FlexGen by 90–121% on
// the 30B models and stays effective as the model grows.
type Figure7Result struct {
	Points []Figure7Point
}

// Figure7 runs the ablation over the evaluated models.
func Figure7() (*Figure7Result, error) {
	plat := a100()
	out := &Figure7Result{}
	for _, mod := range model.Evaluated() {
		for _, n := range []int{8, 32, 128} {
			fg, err := baselines.FlexGen(plat, mod, 64, 64, n)
			if err != nil {
				return nil, fmt.Errorf("experiments: figure 7 %s n=%d: %w", mod.Name, n, err)
			}
			nopc, err := baselines.LMOffloadNoPC(plat, mod, 64, 64, n)
			if err != nil {
				return nil, fmt.Errorf("experiments: figure 7 %s n=%d: %w", mod.Name, n, err)
			}
			out.Points = append(out.Points, Figure7Point{
				Model:      mod.Name,
				GenLen:     n,
				FlexGen:    fg.Throughput(),
				NoPC:       nopc.Throughput(),
				GainPct:    (nopc.Throughput()/fg.Throughput() - 1) * 100,
				WeightsGPU: nopc.Strategy.WeightsGPUPct * 100,
			})
		}
	}
	return out, nil
}

// Report renders the ablation.
func (r *Figure7Result) Report() *Report {
	t := stats.NewTable("model", "len", "FlexGen tok/s", "LM-Offload(no PC) tok/s", "gain", "no-PC wg")
	for _, p := range r.Points {
		t.AddRowf("%s\t%d\t%.1f\t%.1f\t%.0f%%\t%.0f%%", p.Model, p.GenLen, p.FlexGen, p.NoPC, p.GainPct, p.WeightsGPU)
	}
	return &Report{
		Title: "Figure 7: quantization-aware modeling without parallelism control vs FlexGen",
		Table: t,
		Notes: []string{"paper: 90-121% gains on the 30B models, consistent at larger sizes"},
	}
}
