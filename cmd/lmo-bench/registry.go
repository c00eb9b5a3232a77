package main

import "repro/internal/experiments"

// experiment is one runnable table/figure reproduction. csv is optional:
// experiments with plottable series also emit comma-separated rows.
type experiment struct {
	name string
	run  func() (string, error)
	csv  func() (string, error)
}

// registry lists every experiment in paper order.
func registry() []experiment {
	// The workload grid is the slowest experiment; memoize so -csv does not
	// replay the whole grid a second time.
	var workloadGrid *experiments.WorkloadResult
	workload := func() (*experiments.WorkloadResult, error) {
		if workloadGrid != nil {
			return workloadGrid, nil
		}
		r, err := experiments.WorkloadGrid(24, false)
		if err != nil {
			return nil, err
		}
		workloadGrid = r
		return r, nil
	}
	// The drift experiment runs a live adaptation lifecycle three times;
	// memoize it the same way so -csv reuses the run.
	var driftRes *experiments.DriftResult
	drift := func() (*experiments.DriftResult, error) {
		if driftRes != nil {
			return driftRes, nil
		}
		r, err := experiments.DriftAdapt(2)
		if err != nil {
			return nil, err
		}
		driftRes = r
		return r, nil
	}
	// The chunked A/B replays the long-prompt arrival once per arm; memoize
	// so -csv reuses the run.
	var chunkedRes *experiments.ChunkedResult
	chunked := func() (*experiments.ChunkedResult, error) {
		if chunkedRes != nil {
			return chunkedRes, nil
		}
		r, err := experiments.ChunkedBench()
		if err != nil {
			return nil, err
		}
		if err := r.CheckAcceptance(); err != nil {
			return nil, err
		}
		chunkedRes = r
		return r, nil
	}
	return []experiment{
		{name: "fig3", run: func() (string, error) {
			r, err := experiments.Figure3()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "fig4", run: func() (string, error) {
			r, err := experiments.Figure4()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "tab1", run: func() (string, error) {
			r, err := experiments.Table1()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "fig5", run: func() (string, error) {
			r, err := experiments.Figure5()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.Figure5()
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "tab3", run: func() (string, error) {
			r, err := experiments.Table3(nil, nil)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.Table3(nil, nil)
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "fig7", run: func() (string, error) {
			r, err := experiments.Figure7()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "fig8", run: func() (string, error) {
			r, err := experiments.Figure8()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "tab5", run: func() (string, error) {
			r, err := experiments.Table5()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "fig9", run: func() (string, error) {
			r, err := experiments.Figure9()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.Figure9()
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "functional", run: func() (string, error) {
			r, err := experiments.FunctionalCheck()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "scale", run: func() (string, error) {
			r, err := experiments.ScaleSweep(32)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.ScaleSweep(32)
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "whatif", run: func() (string, error) {
			r, err := experiments.PlatformWhatIf(32)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "validation", run: func() (string, error) {
			r, err := experiments.ValidateModel(24, 7)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "ablations", run: func() (string, error) {
			r, err := experiments.Ablations()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{name: "serving", run: func() (string, error) {
			r, err := experiments.ServingThroughput(4, 32)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.ServingThroughput(4, 32)
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "overload", run: func() (string, error) {
			r, err := experiments.Overload(48)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.Overload(48)
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "availability", run: func() (string, error) {
			r, err := experiments.Availability()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.Availability()
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "prefix", run: func() (string, error) {
			r, err := experiments.PrefixReuse(12)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.PrefixReuse(12)
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "cluster", run: func() (string, error) {
			r, err := experiments.ClusterBench(60)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.ClusterBench(60)
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "workload", run: func() (string, error) {
			r, err := workload()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := workload()
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "drift", run: func() (string, error) {
			r, err := drift()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := drift()
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "chunked", run: func() (string, error) {
			r, err := chunked()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := chunked()
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
		{name: "conformance", run: func() (string, error) {
			r, err := experiments.Conformance()
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}, csv: func() (string, error) {
			r, err := experiments.Conformance()
			if err != nil {
				return "", err
			}
			return r.CSV(), nil
		}},
	}
}
