// Package experiments regenerates every table and figure of the paper's
// evaluation (§3.1 and §5). Each experiment is a function from the built-in
// platform/model descriptions to a typed result whose Report method renders
// one table in the paper's layout, with notes and the experiment's gates
// (report.go); cmd/lmo-bench and the root benchmark suite drive them.
//
// Absolute numbers come from this repository's calibrated models and
// simulators, not the authors' testbed; EXPERIMENTS.md records the
// paper-versus-measured comparison for every entry.
package experiments

import (
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// a100 returns the single-GPU evaluation platform (Table 4).
func a100() *hw.Platform { return hw.SingleGPUA100() }

// v100s returns the multi-GPU evaluation platform (Table 4).
func v100s() *hw.Platform { return hw.MultiGPUV100() }

// motivationWorkload is the §3.1 setup: OPT-30B, s=64, n=128, bsz=64,
// bls=640.
func motivationWorkload() (model.Config, workload.Job) {
	return model.OPT30B, workload.PaperDefault()
}

// estimate builds an estimator for the motivation setup, panicking on
// programmer error (the inputs are all compile-time constants).
func estimate(s perfmodel.Strategy, exec perfmodel.ExecProfile) *perfmodel.Estimator {
	mod, work := motivationWorkload()
	e, err := perfmodel.New(a100(), mod, work, s, exec)
	if err != nil {
		panic(err)
	}
	return e
}
