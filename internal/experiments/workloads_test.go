package experiments

import (
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

var wallclock = flag.Bool("wallclock", false,
	"also assert the bounds on measured wall-clock q-errors and latencies (CI passes it in dedicated steps)")

// wallclockTests hold bounds on measured wall-clock time that a quiet runner
// meets and a loaded shared host does not. Without -wallclock they assert
// only their deterministic checks.
var wallclockTests = []string{"TestWorkloadGridThresholds", "TestChunkedSummarize4kNoTPOTOutlier"}

// TestCIPassesWallclockFlag: every ci.yml `go test` line that runs a
// wall-clock test must pass -wallclock, or no job asserts its bounds.
func TestCIPassesWallclockFlag(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	lines := regexp.MustCompile(`(?m)^\s*run: go test .*$`).FindAllString(string(ci), -1)
	flagged := regexp.MustCompile(`\s-wallclock(\s|$)`)
	for _, name := range wallclockTests {
		runs := 0
		for _, line := range lines {
			if !strings.Contains(line, name) {
				continue
			}
			runs++
			if !flagged.MatchString(line) {
				t.Errorf("ci.yml runs %s without -wallclock: %s", name, strings.TrimSpace(line))
			}
		}
		if runs == 0 {
			t.Errorf("no ci.yml step runs %s", name)
		}
	}
}

// loadThresholds parses testdata/workload_thresholds.csv — the pinned
// per-estimator ceilings on worst-cell median q-error that CI enforces.
func loadThresholds(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("testdata/workload_thresholds.csv")
	if err != nil {
		t.Fatalf("read thresholds: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "estimator,max_median" {
		t.Fatalf("thresholds header = %q, want estimator,max_median", lines[0])
	}
	out := map[string]float64{}
	for _, line := range lines[1:] {
		parts := strings.Split(strings.TrimSpace(line), ",")
		if len(parts) != 2 {
			t.Fatalf("malformed threshold row %q", line)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			t.Fatalf("threshold %q: %v", line, err)
		}
		out[parts[0]] = v
	}
	return out
}

// TestWorkloadGridThresholds replays the reduced grid (the CI -race
// configuration) and fails if any estimator's worst-cell median q-error
// regresses past its pinned threshold, or if the committed acceptance bar
// (calm/diurnal peak_arena and tpot ≤ 2.0) breaks. Both are wall-clock
// bounds, asserted with -wallclock; every run checks that each cell served
// its trace and each estimator scored.
func TestWorkloadGridThresholds(t *testing.T) {
	r, err := WorkloadGrid(16, true)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{Exact, Model}
	if *wallclock {
		kinds = append(kinds, WallClock)
	}
	for _, g := range r.Report().Failed(kinds...) {
		t.Errorf("acceptance: %v", g)
	}
	thresholds := loadThresholds(t)
	for _, est := range []string{perfmodel.EstPeakArena, perfmodel.EstTPOT, perfmodel.EstPrefill} {
		if _, ok := thresholds[est]; !ok {
			t.Errorf("thresholds file missing estimator %s", est)
		}
	}
	for est, max := range thresholds {
		worst := r.WorstMedian(est)
		if worst == 0 && est != perfmodel.EstDrain {
			// Drain legitimately records nothing on calm cells with no
			// post-arrival backlog; everything else must score every run.
			t.Errorf("estimator %s never scored on the reduced grid", est)
		}
		if *wallclock && worst > max {
			t.Errorf("estimator %s worst-cell median q-error %.2f exceeds pinned %.2f", est, worst, max)
		}
	}
	// Every cell must have actually served its trace: the reduced grid runs
	// calm profiles only, so nothing should shed.
	for _, c := range r.Cells {
		if c.Completed != c.Requests || c.Shed != 0 {
			t.Errorf("%s: completed %d shed %d of %d requests", c.cellLabel(), c.Completed, c.Shed, c.Requests)
		}
	}
}
