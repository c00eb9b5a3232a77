package experiments

import (
	"testing"
	"time"

	"repro/internal/model"
)

// TestChunkedSummarize4kNoTPOTOutlier is the satellite regression for the
// workload grid's TPOT scoring: a 4096-token prompt arriving over live
// summarize decode streams must not produce a TPOT outlier once chunked
// admission is on. Two pins, both stable under -race:
//
//   - the decode streams keep flowing during the long prefill (an event
//     count fixed by the scheduler's chunk/decode interleaving — monolithic
//     admission delivers ~zero tokens in that window);
//   - the EstTPOT q-error distribution stays tight, because the step-cost
//     fit is scored on the timed decode window only. Chunk compute runs in
//     the scheduler loop outside that window; a regression that leaks a
//     ~chunk-sized cost into the decode measurement inflates p95 by an
//     order of magnitude. This pin and the p99 gap ceiling are wall-clock
//     bounds, asserted with -wallclock.
func TestChunkedSummarize4kNoTPOTOutlier(t *testing.T) {
	arm, outs, err := runChunkedArm(model.Tiny(), 32, 4096, 3, 96, 7103)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if len(out) == 0 {
			t.Errorf("request %d served no tokens", i)
		}
	}
	if arm.During < 20 {
		t.Errorf("only %d background tokens delivered during the 4k prefill, want >= 20 — the arrival stalled the batch", arm.During)
	}
	if arm.TPOTQErrN == 0 {
		t.Fatal("EstTPOT never scored")
	}
	// Healthy runs sit near 2 (the occupancy-linear fit underpredicts steps
	// whose batch holds the 4k-row slot); leaking one ~chunk-sized cost into
	// the measured decode steps inflates this past 20.
	if *wallclock && arm.TPOTQErrP95 > 5.0 {
		t.Errorf("EstTPOT q-error p95 = %.2f, want <= 5.0 — chunk compute is leaking into the decode-step measurement", arm.TPOTQErrP95)
	}
	// Generous absolute ceiling: a chunked gap is bounded by one chunk's
	// compute (~tens of ms here), while an unchunked 4k prefill lands its
	// full multi-second duration inside a single gap.
	if *wallclock && arm.TPOTP99 > 2500*time.Millisecond {
		t.Errorf("background p99 inter-token gap %v — the 4k arrival produced a TPOT outlier", arm.TPOTP99)
	}
}
