package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/model"
	"repro/internal/stats"
)

// Table3Cell is one (framework, model, generation length) measurement.
type Table3Cell struct {
	Framework  string
	Model      string
	GenLen     int
	BlockSize  int
	WG, CG, HG float64 // placement percentages, 0-100
	MemGB      float64
	Throughput float64
	// NormTput is throughput divided by LM-Offload's for the same config.
	NormTput float64
}

// Table3Result reproduces Table 3: FlexGen vs ZeRO-Inference vs LM-Offload
// across the four evaluation models and five generation lengths.
type Table3Result struct {
	Cells []Table3Cell
	// Speedups summarize LM-Offload against each baseline (the abstract's
	// headline numbers: up to 2.95x / 2.34x avg over FlexGen, up to
	// 2.88x / 1.57x avg over ZeRO-Inference).
	VsFlexGen, VsZeRO stats.SpeedupSummary
}

// Table3 runs the full grid. Models and lengths can be narrowed for quick
// runs; nil/empty selects the paper's full axes.
func Table3(models []model.Config, genLens []int) (*Table3Result, error) {
	if len(models) == 0 {
		models = model.Evaluated()
	}
	if len(genLens) == 0 {
		genLens = []int{8, 16, 32, 64, 128}
	}
	plat := a100()
	out := &Table3Result{}
	var lmT, fgT, zrT []float64

	add := func(sys *baselines.System, modName string, genLen int, lm float64) {
		cell := Table3Cell{
			Framework:  sys.Name,
			Model:      modName,
			GenLen:     genLen,
			BlockSize:  sys.Work.BlockSize(),
			WG:         sys.Strategy.WeightsGPUPct * 100,
			CG:         sys.Strategy.CacheGPUPct * 100,
			HG:         sys.Strategy.ActGPUPct * 100,
			MemGB:      float64(sys.Estimator.TotalMemory()) / (1 << 30),
			Throughput: sys.Throughput(),
		}
		if lm > 0 {
			cell.NormTput = sys.Throughput() / lm
		}
		out.Cells = append(out.Cells, cell)
	}

	for _, mod := range models {
		for _, n := range genLens {
			lm, err := baselines.LMOffload(plat, mod, 64, 64, n)
			if err != nil {
				return nil, fmt.Errorf("experiments: table 3 %s n=%d: %w", mod.Name, n, err)
			}
			fg, err := baselines.FlexGen(plat, mod, 64, 64, n)
			if err != nil {
				return nil, fmt.Errorf("experiments: table 3 %s n=%d: %w", mod.Name, n, err)
			}
			zr, err := baselines.ZeRO(plat, mod, 64, n)
			if err != nil {
				return nil, fmt.Errorf("experiments: table 3 %s n=%d: %w", mod.Name, n, err)
			}
			lmTput := lm.Throughput()
			add(fg, mod.Name, n, lmTput)
			add(zr, mod.Name, n, lmTput)
			add(lm, mod.Name, n, lmTput)
			lmT = append(lmT, lmTput)
			fgT = append(fgT, fg.Throughput())
			zrT = append(zrT, zr.Throughput())
		}
	}
	var err error
	if out.VsFlexGen, err = stats.Speedups(lmT, fgT); err != nil {
		return nil, err
	}
	if out.VsZeRO, err = stats.Speedups(lmT, zrT); err != nil {
		return nil, err
	}
	return out, nil
}

// Report renders the grid in the paper's row layout.
func (r *Table3Result) Report() *Report {
	t := stats.NewTable("framework", "model", "len", "bls", "wg", "cg", "hg", "mem GB", "tok/s", "norm")
	for _, c := range r.Cells {
		t.AddRowf("%s\t%s\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\t%.2f",
			c.Framework, c.Model, c.GenLen, c.BlockSize, c.WG, c.CG, c.HG, c.MemGB, c.Throughput, c.NormTput)
	}
	rep := &Report{Title: "Table 3: FlexGen vs ZeRO-Inference vs LM-Offload (A100 platform, s=64)", Table: t}
	rep.note("LM-Offload vs FlexGen:        %s (paper: up to 2.95x, 2.34x avg)", r.VsFlexGen)
	rep.note("LM-Offload vs ZeRO-Inference: %s (paper: up to 2.88x, 1.57x avg)", r.VsZeRO)
	return rep
}

// Cell returns the first cell matching the selector, or nil.
func (r *Table3Result) Cell(framework, mod string, genLen int) *Table3Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Framework == framework && c.Model == mod && c.GenLen == genLen {
			return c
		}
	}
	return nil
}
