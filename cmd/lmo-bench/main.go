// Command lmo-bench regenerates the paper's tables and figures on stdout.
//
// Usage:
//
//	lmo-bench [-run all|NAME[,NAME...]] [-csv DIR]
//
// The experiment names are the registry's (registry.go); `lmo-bench -h`
// lists them. Each experiment prints its rows alongside the paper's reported
// values so the output doubles as the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments to run: all, "+names())
	csvDir := flag.String("csv", "", "also write <experiment>.csv files for plottable experiments into this directory")
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

	ran := 0
	for _, exp := range registry() {
		if !want(exp.name) {
			continue
		}
		start := time.Now()
		res, err := exp.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lmo-bench: %s: %v\n", exp.name, err)
			os.Exit(1)
		}
		fmt.Println(res.Format())
		if c, ok := res.(csvResult); ok && *csvDir != "" {
			path := filepath.Join(*csvDir, exp.name+".csv")
			if err := os.WriteFile(path, []byte(c.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "lmo-bench: %s csv: %v\n", exp.name, err)
				os.Exit(1)
			}
			fmt.Printf("[wrote %s]\n", path)
		}
		fmt.Printf("[%s completed in %v]\n\n", exp.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "lmo-bench: no experiment matches %q\n", *run)
		os.Exit(2)
	}
}
