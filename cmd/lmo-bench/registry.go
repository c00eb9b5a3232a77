package main

import (
	"strings"

	"repro/internal/experiments"
)

// experiment is one runnable table/figure reproduction.
type experiment struct {
	name string
	run  func(experiments.Scale) (*experiments.Report, error)
}

// reporter is every experiment's typed result.
type reporter interface{ Report() *experiments.Report }

// entry registers an experiment function under name.
func entry[R reporter](name string, run func(experiments.Scale) (R, error)) experiment {
	return experiment{name: name, run: func(s experiments.Scale) (*experiments.Report, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		return r.Report(), nil
	}}
}

// fixed adapts an experiment that runs the same at every scale.
func fixed[R reporter](run func() (R, error)) func(experiments.Scale) (R, error) {
	return func(experiments.Scale) (R, error) { return run() }
}

// registry lists every experiment in paper order.
func registry() []experiment {
	return []experiment{
		entry("fig3", fixed(experiments.Figure3)),
		entry("fig4", fixed(experiments.Figure4)),
		entry("tab1", fixed(experiments.Table1)),
		entry("fig5", fixed(experiments.Figure5)),
		entry("tab3", func(experiments.Scale) (*experiments.Table3Result, error) { return experiments.Table3(nil, nil) }),
		entry("fig7", fixed(experiments.Figure7)),
		entry("fig8", fixed(experiments.Figure8)),
		entry("tab5", experiments.Table5),
		entry("fig9", fixed(experiments.Figure9)),
		entry("functional", experiments.FunctionalCheck),
		entry("scale", func(experiments.Scale) (*experiments.ScaleResult, error) { return experiments.ScaleSweep(32) }),
		entry("whatif", func(experiments.Scale) (*experiments.WhatIfResult, error) { return experiments.PlatformWhatIf(32) }),
		entry("validation", func(s experiments.Scale) (*experiments.ValidationResult, error) {
			if s == experiments.Smoke {
				return experiments.ValidateModel(12, 7)
			}
			return experiments.ValidateModel(24, 7)
		}),
		entry("ablations", fixed(experiments.Ablations)),
		entry("serving", experiments.ServingThroughput),
		entry("overload", experiments.Overload),
		entry("availability", experiments.Availability),
		entry("prefix", experiments.PrefixReuse),
		entry("cluster", experiments.ClusterBench),
		// Smoke is the reduced grid the thresholds test replays.
		entry("workload", func(s experiments.Scale) (*experiments.WorkloadResult, error) {
			if s == experiments.Smoke {
				return experiments.WorkloadGrid(16, true)
			}
			return experiments.WorkloadGrid(24, false)
		}),
		entry("drift", func(experiments.Scale) (*experiments.DriftResult, error) { return experiments.DriftAdapt(2) }),
		entry("chunked", experiments.ChunkedBench),
		entry("conformance", fixed(experiments.Conformance)),
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
