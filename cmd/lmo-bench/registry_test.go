package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// smokeReports caches each experiment's Smoke report across the tests of
// one test binary, which run one at a time.
var smokeReports = map[string]*experiments.Report{}

func smokeReport(t *testing.T, exp experiment) *experiments.Report {
	t.Helper()
	if rep, ok := smokeReports[exp.name]; ok {
		return rep
	}
	rep, err := exp.run(experiments.Smoke)
	if err != nil {
		t.Fatal(err)
	}
	smokeReports[exp.name] = rep
	return rep
}

// TestRegistryRunsEveryExperiment executes every registered experiment once
// at Smoke, guarding the CLI wiring end to end, and asserts its Exact and
// Model gates. WallClock gates are asserted at Full by CI (see
// TestCIRunsEveryWallClockGate).
func TestRegistryRunsEveryExperiment(t *testing.T) {
	seen := map[string]bool{}
	for _, exp := range registry() {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			if seen[exp.name] {
				t.Fatalf("duplicate experiment name %q", exp.name)
			}
			seen[exp.name] = true
			rep := smokeReport(t, exp)
			if rep.Table.Rows() == 0 {
				t.Error("empty table")
			}
			for _, g := range rep.Failed(experiments.Exact, experiments.Model) {
				t.Errorf("gate failed: %v", g)
			}
		})
	}
	// Every paper table/figure is registered.
	for _, want := range []string{"fig3", "fig4", "tab1", "fig5", "tab3", "fig7", "fig8", "tab5", "fig9"} {
		if !seen[want] {
			t.Errorf("experiment %q missing from the registry", want)
		}
	}
}

// TestCIRunsEveryWallClockGate: go test does not assert WallClock gates, so
// every experiment that has one must be run by a CI step, where lmo-bench's
// exit status fails the job.
func TestCIRunsEveryWallClockGate(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	inCI := map[string]bool{}
	for _, m := range regexp.MustCompile(`lmo-bench -run ([\w,]+)`).FindAllStringSubmatch(string(ci), -1) {
		for _, name := range strings.Split(m[1], ",") {
			inCI[name] = true
		}
	}
	for _, exp := range registry() {
		for _, g := range smokeReport(t, exp).Gates {
			if g.Kind == experiments.WallClock && !inCI[exp.name] {
				t.Errorf("%s has wall-clock gate %q but no ci.yml step runs `lmo-bench -run %s`", exp.name, g.Name, exp.name)
				break
			}
		}
	}
}

// TestRunAllFailsOnFailedGate: one failed Model gate fails the run loop,
// after the report is printed.
func TestRunAllFailsOnFailedGate(t *testing.T) {
	gate := experiments.Gate{Name: "sim vs model", Kind: experiments.Model, Value: 2, Bound: "<= 1", Pass: false}
	fake := experiment{name: "fake", run: func(experiments.Scale) (*experiments.Report, error) {
		return &experiments.Report{Title: "fake", Table: stats.NewTable("x"), Gates: []experiments.Gate{gate}}, nil
	}}
	var out bytes.Buffer
	err := runAll(&out, []experiment{fake}, experiments.Smoke, "")
	if err == nil || !strings.Contains(err.Error(), "sim vs model") {
		t.Errorf("run loop error = %v, want the failed gate", err)
	}
	if !strings.Contains(out.String(), gate.String()) {
		t.Errorf("report not printed before failing:\n%s", out.String())
	}
	gate.Pass = true
	if err := runAll(&out, []experiment{fake}, experiments.Smoke, ""); err != nil {
		t.Errorf("passing gate failed the run loop: %v", err)
	}
}
