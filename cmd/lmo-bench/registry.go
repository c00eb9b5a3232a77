package main

import (
	"strings"

	"repro/internal/experiments"
)

// result is what every experiment returns: a report whose Format renders
// the rows next to the paper's values. Results with plottable series also
// implement csvResult.
type result interface{ Format() string }

// csvResult is a result that also renders comma-separated rows.
type csvResult interface{ CSV() string }

// experiment is one runnable table/figure reproduction.
type experiment struct {
	name string
	run  func() (result, error)
}

// entry registers an experiment function under name.
func entry[R result](name string, run func() (R, error)) experiment {
	return experiment{name: name, run: func() (result, error) { return run() }}
}

// registry lists every experiment in paper order.
func registry() []experiment {
	return []experiment{
		entry("fig3", experiments.Figure3),
		entry("fig4", experiments.Figure4),
		entry("tab1", experiments.Table1),
		entry("fig5", experiments.Figure5),
		entry("tab3", func() (*experiments.Table3Result, error) { return experiments.Table3(nil, nil) }),
		entry("fig7", experiments.Figure7),
		entry("fig8", experiments.Figure8),
		entry("tab5", experiments.Table5),
		entry("fig9", experiments.Figure9),
		entry("functional", experiments.FunctionalCheck),
		entry("scale", func() (*experiments.ScaleResult, error) { return experiments.ScaleSweep(32) }),
		entry("whatif", func() (*experiments.WhatIfResult, error) { return experiments.PlatformWhatIf(32) }),
		entry("validation", func() (*experiments.ValidationResult, error) { return experiments.ValidateModel(24, 7) }),
		entry("ablations", experiments.Ablations),
		entry("serving", func() (*experiments.ServingResult, error) { return experiments.ServingThroughput(4, 32) }),
		entry("overload", func() (*experiments.OverloadResult, error) { return experiments.Overload(48) }),
		entry("availability", experiments.Availability),
		entry("prefix", func() (*experiments.PrefixResult, error) { return experiments.PrefixReuse(12) }),
		entry("cluster", func() (*experiments.ClusterResult, error) { return experiments.ClusterBench(60) }),
		entry("workload", func() (*experiments.WorkloadResult, error) { return experiments.WorkloadGrid(24, false) }),
		entry("drift", func() (*experiments.DriftResult, error) { return experiments.DriftAdapt(2) }),
		entry("chunked", func() (*experiments.ChunkedResult, error) {
			r, err := experiments.ChunkedBench()
			if err == nil {
				err = r.CheckAcceptance()
			}
			return r, err
		}),
		entry("conformance", experiments.Conformance),
	}
}

// names lists the registered experiment names in registry order.
func names() string {
	var out []string
	for _, exp := range registry() {
		out = append(out, exp.name)
	}
	return strings.Join(out, ", ")
}
