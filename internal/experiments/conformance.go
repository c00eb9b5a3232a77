package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/xtrace/conformance"
)

// ConformanceResult wraps the model-conformance suite's rows: every
// measured-vs-predicted comparison across the simulator, the live engine,
// and the serving layer, in one table.
type ConformanceResult struct {
	Rows []conformance.Row
}

// Conformance runs the full conformance suite (sim-vs-model equality,
// calibrated engine-vs-model ordering, serve-layer bound checks).
func Conformance() (*ConformanceResult, error) {
	rep, err := conformance.Run()
	if err != nil {
		return nil, err
	}
	return &ConformanceResult{Rows: rep.Rows}, nil
}

// Report renders the measured-vs-predicted table with gates per suite, in
// report order, on its count of failed checks: a Model gate on the rows that
// repeat on every run, and, for a suite with Timed rows, a WallClock gate on
// those, whose verdicts depend on the host's load. Informational rows (check
// "error") assert nothing.
func (r *ConformanceResult) Report() *Report {
	t := stats.NewTable("suite", "case", "check", "task", "predicted", "measured", "relerr", "verdict", "note")
	var suites []string
	failed := map[string]int{}
	timed := map[string]bool{}
	failedTimed := map[string]int{}
	pass, fails, info := 0, 0, 0
	for _, row := range r.Rows {
		if _, ok := failed[row.Suite]; !ok {
			suites = append(suites, row.Suite)
			failed[row.Suite] = 0
		}
		timed[row.Suite] = timed[row.Suite] || row.Timed
		verdict := "pass"
		switch {
		case row.Check == "error":
			verdict = "info"
			info++
		case row.Pass:
			pass++
		case row.Timed:
			verdict = "FAIL"
			failedTimed[row.Suite]++
			fails++
		default:
			verdict = "FAIL"
			failed[row.Suite]++
			fails++
		}
		t.AddRowf("%s\t%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t%s\t%s",
			row.Suite, row.Case, row.Check, row.Task, row.Predicted, row.Measured, row.RelErr, verdict, row.Note)
	}
	rep := &Report{Title: "Model conformance: measured vs predicted (Eq. 2 task decomposition)", Table: t}
	for _, s := range suites {
		rep.Gates = append(rep.Gates, atMost(s+" failed checks", Model, float64(failed[s]), 0))
		if timed[s] {
			rep.Gates = append(rep.Gates, atMost(s+" failed timed checks", WallClock, float64(failedTimed[s]), 0))
		}
	}
	rep.Notes = []string{fmt.Sprintf("%d checks passed, %d failed, %d informational rows", pass, fails, info)}
	return rep
}
