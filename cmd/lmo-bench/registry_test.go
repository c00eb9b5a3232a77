package main

import (
	"strings"
	"testing"
)

// TestRegistryRunsEveryExperiment executes every registered experiment once,
// guarding the CLI wiring end to end.
func TestRegistryRunsEveryExperiment(t *testing.T) {
	seen := map[string]bool{}
	for _, exp := range registry() {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			if seen[exp.name] {
				t.Fatalf("duplicate experiment name %q", exp.name)
			}
			seen[exp.name] = true
			res, err := exp.run()
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(res.Format()) == "" {
				t.Error("empty output")
			}
			if c, ok := res.(csvResult); ok && !strings.Contains(c.CSV(), ",") {
				t.Error("CSV output has no columns")
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
