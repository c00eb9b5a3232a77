package experiments

import (
	"repro/internal/parallelism"
	"repro/internal/perfmodel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure8Result reproduces Figure 8: the execution time of the six decode
// tasks under default threading versus LM-Offload's parallelism control
// (asynchronous execution disabled for the per-task measurement), plus the
// end-to-end step time with asynchrony enabled.
type Figure8Result struct {
	// Default and Tuned are the controller's settings.
	Default, Tuned parallelism.Setting
	// TaskTimes maps task name -> [default, tuned] seconds per layer step.
	TaskNames []string
	DefaultT  []float64
	TunedT    []float64
	// ComputeReductionPct is the compute task's improvement (paper: 32%).
	ComputeReductionPct float64
	// AvgReductionPct is the mean per-task improvement (paper: 19%).
	AvgReductionPct float64
	// EndToEndReductionPct is the asynchronous end-to-end improvement
	// (paper: 38%).
	EndToEndReductionPct float64
}

// Figure8 runs the §5.4 study: OPT-30B, generation length 8, attention
// offloaded to the CPU.
func Figure8() (*Figure8Result, error) {
	ctrl, og, transfers, err := figure5Setup()
	if err != nil {
		return nil, err
	}
	def, err := ctrl.DefaultSetting(og, transfers)
	if err != nil {
		return nil, err
	}
	tuned, err := ctrl.Optimize(og, transfers)
	if err != nil {
		return nil, err
	}

	out := &Figure8Result{Default: def, Tuned: tuned}
	// Per-task times with asynchronous execution disabled: compute from the
	// controller, transfers from their volumes and thread assignments.
	out.TaskNames = append(out.TaskNames, "compute")
	out.DefaultT = append(out.DefaultT, def.ComputeTime)
	out.TunedT = append(out.TunedT, tuned.ComputeTime)
	for _, tr := range transfers {
		if tr.Bytes == 0 {
			continue
		}
		out.TaskNames = append(out.TaskNames, tr.Name)
		out.DefaultT = append(out.DefaultT, transferTimeFor(ctrl, tr, def.TransferThreads[tr.Name]))
		out.TunedT = append(out.TunedT, transferTimeFor(ctrl, tr, tuned.TransferThreads[tr.Name]))
	}

	imp := parallelism.Compare(def, tuned)
	out.ComputeReductionPct = imp.ComputeReduction * 100

	var reductions []float64
	for i := range out.DefaultT {
		if out.DefaultT[i] > 0 {
			reductions = append(reductions, 1-out.TunedT[i]/out.DefaultT[i])
		}
	}
	out.AvgReductionPct = stats.Mean(reductions) * 100

	// End-to-end with asynchrony: run the analytical model under the two
	// execution profiles for the same strategy.
	mod, _ := motivationWorkload()
	work := workload.ParallelismStudy()
	strat := perfmodel.Strategy{AttnOnCPU: true, WeightsGPUPct: 0.55}
	defProf := perfmodel.FlexGenProfile()
	tunedProf := perfmodel.LMOffloadProfile()
	eDef, err := perfmodel.New(a100(), mod, work, strat, defProf)
	if err != nil {
		return nil, err
	}
	eTuned, err := perfmodel.New(a100(), mod, work, strat, tunedProf)
	if err != nil {
		return nil, err
	}
	out.EndToEndReductionPct = (1 - eTuned.TGen()/eDef.TGen()) * 100
	return out, nil
}

// transferTimeFor mirrors the controller's transfer model for reporting.
func transferTimeFor(c *parallelism.Controller, tr parallelism.TransferTask, threads int) float64 {
	// Reuse the sweep helper indirectly: one-off computation here.
	eff := 0.55
	switch {
	case threads <= 0:
		eff = 0.10
	case threads == 2:
		eff = 0.80
	case threads >= 3:
		eff = 0.95
	}
	return tr.Bytes / (c.LinkBandwidth * eff)
}

// Report renders the per-task comparison.
func (r *Figure8Result) Report() *Report {
	t := stats.NewTable("task", "default ms", "tuned ms", "reduction")
	for i, name := range r.TaskNames {
		red := 0.0
		if r.DefaultT[i] > 0 {
			red = (1 - r.TunedT[i]/r.DefaultT[i]) * 100
		}
		t.AddRowf("%s\t%.2f\t%.2f\t%.0f%%", name, r.DefaultT[i]*1e3, r.TunedT[i]*1e3, red)
	}
	rep := &Report{Title: "Figure 8: task times, default threading vs parallelism control (OPT-30B, n=8)", Table: t}
	rep.note("default: intra-op %d, inter-op %d; tuned: intra-op %d, inter-op %d (paper: 16/12)",
		r.Default.IntraOp, r.Default.InterOp, r.Tuned.IntraOp, r.Tuned.InterOp)
	rep.note("compute reduction:   %.0f%% (paper: 32%%)", r.ComputeReductionPct)
	rep.note("average reduction:   %.0f%% (paper: 19%%)", r.AvgReductionPct)
	rep.note("end-to-end (async):  %.0f%% (paper: 38%%)", r.EndToEndReductionPct)
	return rep
}
