package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/model"
	"repro/internal/stats"
)

// ScalePoint is one model size's framework comparison.
type ScalePoint struct {
	Model   string
	ParamsB float64 // billions of parameters
	FlexGen float64
	ZeRO    float64
	LM      float64
	// Feasible reports whether the model fits the platform at all (host
	// memory bounds offloaded inference too).
	Feasible bool
}

// ScaleResult extends the paper's scalability observation (§5.3: "the
// performance benefits of LM-Offload remain consistent as the model size
// increases") across the whole OPT family, including OPT-175B, which
// overflows even the host memory of the A100 platform.
type ScaleResult struct {
	GenLen int
	Points []ScalePoint
}

// ScaleSweep runs the three systems across model scales at one generation
// length.
func ScaleSweep(genLen int) (*ScaleResult, error) {
	plat := a100()
	out := &ScaleResult{GenLen: genLen}
	for _, mod := range []model.Config{model.OPT6B7, model.OPT13B, model.OPT30B, model.OPT66B, model.OPT175B} {
		pt := ScalePoint{Model: mod.Name, ParamsB: float64(mod.TotalWeights()) / 1e9}
		lm, err := baselines.LMOffload(plat, mod, 64, 64, genLen)
		if err != nil {
			// Infeasible at this scale (e.g. OPT-175B weights exceed host
			// memory); record the point as infeasible rather than failing.
			out.Points = append(out.Points, pt)
			continue
		}
		pt.Feasible = true
		pt.LM = lm.Throughput()
		if fg, err := baselines.FlexGen(plat, mod, 64, 64, genLen); err == nil {
			pt.FlexGen = fg.Throughput()
		}
		if zr, err := baselines.ZeRO(plat, mod, 64, genLen); err == nil {
			pt.ZeRO = zr.Throughput()
		}
		out.Points = append(out.Points, pt)
	}
	if len(out.Points) == 0 {
		return nil, fmt.Errorf("experiments: empty scale sweep")
	}
	return out, nil
}

// Report renders the sweep.
func (r *ScaleResult) Report() *Report {
	t := stats.NewTable("model", "params B", "FlexGen", "ZeRO", "LM-Offload", "LM/FG")
	for _, p := range r.Points {
		if !p.Feasible {
			t.AddRowf("%s\t%.1f\tinfeasible\tinfeasible\tinfeasible\t-", p.Model, p.ParamsB)
			continue
		}
		ratio := "-"
		if p.FlexGen > 0 {
			ratio = fmt.Sprintf("%.2fx", p.LM/p.FlexGen)
		}
		t.AddRowf("%s\t%.1f\t%.1f\t%.1f\t%.1f\t%s", p.Model, p.ParamsB, p.FlexGen, p.ZeRO, p.LM, ratio)
	}
	return &Report{Title: fmt.Sprintf("Scale sweep (beyond the paper): OPT family at n=%d on the A100 platform", r.GenLen), Table: t}
}
