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

// conformanceSuites are the suites in report order with the kind of their
// gate: the simulator arms and the chunked engine's span-count checks are
// deterministic; the engine ordering and serve bounds are timed.
var conformanceSuites = []struct {
	name string
	kind Kind
}{
	{"sim-vs-model", Model},
	{"chunked-sim-vs-model", Model},
	{"chunked-engine", Model},
	{"engine-vs-model", WallClock},
	{"serve-bounds", WallClock},
}

// Report renders the measured-vs-predicted table with one gate per suite on
// its count of failed checks. Informational rows (check "error") assert
// nothing.
func (r *ConformanceResult) Report() *Report {
	t := stats.NewTable("suite", "case", "check", "task", "predicted", "measured", "relerr", "verdict", "note")
	failed := map[string]int{}
	pass, fails, info := 0, 0, 0
	for _, row := range r.Rows {
		verdict := "pass"
		switch {
		case row.Check == "error":
			verdict = "info"
			info++
		case row.Pass:
			pass++
		default:
			verdict = "FAIL"
			failed[row.Suite]++
			fails++
		}
		t.AddRowf("%s\t%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t%s\t%s",
			row.Suite, row.Case, row.Check, row.Task, row.Predicted, row.Measured, row.RelErr, verdict, row.Note)
	}
	rep := &Report{Title: "Model conformance: measured vs predicted (Eq. 2 task decomposition)", Table: t}
	for _, s := range conformanceSuites {
		rep.Gates = append(rep.Gates, atMost(s.name+" failed checks", s.kind, float64(failed[s.name]), 0))
	}
	rep.Notes = []string{fmt.Sprintf("%d checks passed, %d failed, %d informational rows", pass, fails, info)}
	return rep
}
