package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/stats"
)

// WhatIfRow is one (platform, model) policy outcome.
type WhatIfRow struct {
	Platform   string
	Model      string
	Strategy   string
	WeightsGPU float64
	Throughput float64
}

// WhatIfResult asks how LM-Offload's decisions shift on a next-generation
// platform: an 80 GB H100 with PCIe 5 doubles both the capacity and the
// link, so the policy search should move weights on-device and the
// bottleneck should migrate.
type WhatIfResult struct {
	GenLen int
	Rows   []WhatIfRow
	// SpeedupByModel maps model name -> H100/A100 LM-Offload ratio.
	SpeedupByModel map[string]float64
}

// PlatformWhatIf runs LM-Offload on the paper's A100 platform and the H100
// what-if platform for the evaluated models.
func PlatformWhatIf(genLen int) (*WhatIfResult, error) {
	out := &WhatIfResult{GenLen: genLen, SpeedupByModel: map[string]float64{}}
	platforms := []*hw.Platform{hw.SingleGPUA100(), hw.SingleGPUH100()}
	for _, mod := range model.Evaluated() {
		var tputs []float64
		for _, plat := range platforms {
			sys, err := baselines.LMOffload(plat, mod, 64, 64, genLen)
			if err != nil {
				return nil, fmt.Errorf("experiments: what-if %s on %s: %w", mod.Name, plat.Name, err)
			}
			out.Rows = append(out.Rows, WhatIfRow{
				Platform:   plat.Name,
				Model:      mod.Name,
				Strategy:   sys.Strategy.String(),
				WeightsGPU: sys.Strategy.WeightsGPUPct * 100,
				Throughput: sys.Throughput(),
			})
			tputs = append(tputs, sys.Throughput())
		}
		out.SpeedupByModel[mod.Name] = tputs[1] / tputs[0]
	}
	return out, nil
}

// Report renders the comparison.
func (r *WhatIfResult) Report() *Report {
	t := stats.NewTable("platform", "model", "strategy", "tok/s")
	for _, row := range r.Rows {
		t.AddRowf("%s\t%s\t%s\t%.1f", row.Platform, row.Model, row.Strategy, row.Throughput)
	}
	rep := &Report{Title: fmt.Sprintf("Platform what-if (beyond the paper): LM-Offload on A100/PCIe4 vs H100/PCIe5, n=%d", r.GenLen), Table: t}
	for _, mod := range model.Evaluated() {
		rep.note("%s: H100/A100 = %.2fx", mod.Name, r.SpeedupByModel[mod.Name])
	}
	return rep
}
