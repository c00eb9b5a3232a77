package conformance

import (
	"math"
	"testing"
)

// failuresText reports the failing rows of a report as test errors. Timed
// rows are skipped: a loaded host flips their verdicts, and lmo-bench's
// conformance WallClock gates, which CI runs, assert them.
func failuresText(t *testing.T, rep *Report) {
	t.Helper()
	for _, row := range rep.Failures() {
		if row.Timed {
			continue
		}
		t.Errorf("%s/%s %s %s: predicted %.6g measured %.6g (relerr %.3f) — %s",
			row.Suite, row.Case, row.Check, row.Task,
			row.Predicted, row.Measured, row.RelErr, row.Note)
	}
}

// TestSimVsModel asserts the hard-equality arm: every simulator task-busy
// total equals the estimator component that seeded it, across the full
// strategy × profile grid.
func TestSimVsModel(t *testing.T) {
	rep, err := SimVsModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("sim-vs-model produced no comparison rows")
	}
	failuresText(t, rep)
}

// TestChunkedSimVsModel asserts the chunked-prefill hard-equality arm: the
// DES per-kind busy totals equal the estimator's chunked closed form over
// the strategy × chunk-size grid, and every makespan sits inside its
// structural envelope.
func TestChunkedSimVsModel(t *testing.T) {
	rep, err := ChunkedSimVsModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("chunked-sim-vs-model produced no comparison rows")
	}
	failuresText(t, rep)
}

// TestChunkedEngineBound asserts the chunked serving structural guarantees:
// no prefill_chunk span exceeds the configured chunk budget, chunked
// admissions emit no monolithic prefill span, and the chunk token counts
// conserve the submitted prompt tokens exactly.
func TestChunkedEngineBound(t *testing.T) {
	rep, err := ChunkedEngineBound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 4 {
		t.Fatalf("chunked-engine produced %d rows, want >= 4", len(rep.Rows))
	}
	failuresText(t, rep)
}

// TestEngineVsModel asserts the calibrated live-engine arm's structural span
// presence. Its timed rows (Eq. 2 argmax agreement, order/scale agreement on
// the rate-anchored tasks) are asserted by `lmo-bench -run conformance`.
func TestEngineVsModel(t *testing.T) {
	rep, err := EngineVsModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("engine-vs-model produced no comparison rows")
	}
	// The suite must exercise every grid case with at least one enforced
	// (non-informational) check.
	cases := map[string]int{}
	for _, row := range rep.Rows {
		if row.Check != "error" {
			cases[row.Case]++
		}
	}
	for _, c := range engineGrid() {
		if cases[c.label] == 0 {
			t.Errorf("case %s has no enforced checks", c.label)
		}
	}
	failuresText(t, rep)
}

// TestServeBounds asserts the serving-layer arm: the admission model's peak
// estimate upper-bounds the arena high-water mark. Its timed row, the
// step-cost TPOT prediction bracketing the measured mean, is asserted by
// `lmo-bench -run conformance`.
func TestServeBounds(t *testing.T) {
	rep, err := ServeBounds()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 2 {
		t.Fatalf("serve-bounds produced %d rows, want >= 2", len(rep.Rows))
	}
	failuresText(t, rep)
}

// TestModelRowsRepeatBitForBit: the suites whose predictions come from the
// model alone — the sim-vs-model grids and the chunked engine's structural
// bounds — give every row the same Predicted value, bit for bit, on a
// second run. (Engine-vs-model predictions are calibrated from measured
// rates, and serve-bounds' from live steps, so they are left out.)
func TestModelRowsRepeatBitForBit(t *testing.T) {
	runs := [2][]Row{}
	for i := range runs {
		for _, suite := range []func() (*Report, error){SimVsModel, ChunkedSimVsModel, ChunkedEngineBound} {
			rep, err := suite()
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = append(runs[i], rep.Rows...)
		}
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("%d rows, then %d", len(runs[0]), len(runs[1]))
	}
	for i, r := range runs[0] {
		s := runs[1][i]
		if r.Suite != s.Suite || r.Case != s.Case || r.Check != s.Check || r.Task != s.Task ||
			math.Float64bits(r.Predicted) != math.Float64bits(s.Predicted) {
			t.Errorf("%s/%s %s %s predicted %v, then %s/%s %s %s %v",
				r.Suite, r.Case, r.Check, r.Task, r.Predicted, s.Suite, s.Case, s.Check, s.Task, s.Predicted)
		}
	}
}
