// Command lmo-bench regenerates the paper's tables and figures on stdout.
//
// Usage:
//
//	lmo-bench [-run all|NAME[,NAME...]] [-csv DIR]
//
// The experiment names are the registry's (registry.go); `lmo-bench -h`
// lists them. Each experiment prints its report: one table with the paper's
// values beside the measured ones, notes, and a line per gate, so the output
// doubles as the paper-vs-measured record. -csv also writes each table as
// DIR/<experiment>.csv.
//
// lmo-bench exits 1 when an experiment cannot run or, after every selected
// report is printed, when any gate failed; 2 when -run selects nothing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments to run: all, "+names())
	csvDir := flag.String("csv", "", "also write <experiment>.csv files into this directory")
	flag.Parse()

	selected := strings.Split(*run, ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}
	var exps []experiment
	for _, exp := range registry() {
		if want(exp.name) {
			exps = append(exps, exp)
		}
	}
	if len(exps) == 0 {
		fmt.Fprintf(os.Stderr, "lmo-bench: no experiment matches %q\n", *run)
		os.Exit(2)
	}
	if err := runAll(os.Stdout, exps, experiments.Full, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "lmo-bench: %v\n", err)
		os.Exit(1)
	}
}

// runAll runs each experiment at scale, printing its report to w and, when
// csvDir is set, writing its CSV there. It stops at the first experiment that
// cannot run; otherwise it runs them all and then reports every failed gate.
func runAll(w io.Writer, exps []experiment, scale experiments.Scale, csvDir string) error {
	var failed []string
	for _, exp := range exps {
		start := time.Now()
		rep, err := exp.run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.name, err)
		}
		fmt.Fprintln(w, rep.Text())
		if csvDir != "" {
			path := filepath.Join(csvDir, exp.name+".csv")
			if err := os.WriteFile(path, []byte(rep.Table.CSV()), 0o644); err != nil {
				return fmt.Errorf("%s csv: %w", exp.name, err)
			}
			fmt.Fprintf(w, "[wrote %s]\n", path)
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", exp.name, time.Since(start).Round(time.Millisecond))
		for _, g := range rep.Failed(experiments.Exact, experiments.Model, experiments.WallClock) {
			failed = append(failed, exp.name+": "+g.String())
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d failed gates:\n%s", len(failed), strings.Join(failed, "\n"))
	}
	return nil
}
