// Command sdvmlint runs the SDVM static-analysis suite over the
// repository's production packages and exits nonzero on any finding.
//
// Usage, from anywhere inside the module:
//
//	go run ./cmd/sdvmlint ./...
//
// The package pattern argument is accepted for familiarity but the suite
// always analyzes the whole module: the interprocedural analyzers need
// the complete call graph, and partial runs would miss callers and
// callees in other packages. Findings can be suppressed per line with
//
//	//sdvmlint:allow <analyzer> -- <reason>
//
// Flags:
//
//	-timings         print per-analyzer wall-clock timings to stderr
//	-budget DUR      exit nonzero if the whole run exceeds DUR (0 = off)
//
// Exit codes:
//
//	0  clean: no findings and within budget
//	1  findings were reported, or the run exceeded -budget
//	2  usage or environment error (no go.mod, package load failure)
//
// See internal/analysis and DESIGN.md ("Static analysis & race policy").
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
)

func main() {
	timings := flag.Bool("timings", false, "print per-analyzer wall-clock timings to stderr")
	budget := flag.Duration("budget", 0, "fail if the whole analysis run exceeds this duration (0 disables)")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdvmlint:", err)
		os.Exit(2)
	}
	start := time.Now()
	prog, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdvmlint:", err)
		os.Exit(2)
	}
	loadTime := time.Since(start)
	findings, perAnalyzer := analysis.RunWithTimings(prog, analysis.All())
	total := time.Since(start)
	if *timings {
		fmt.Fprintf(os.Stderr, "sdvmlint: load %v\n", loadTime.Round(time.Millisecond))
		for _, tm := range perAnalyzer {
			fmt.Fprintf(os.Stderr, "sdvmlint: %-14s %v\n", tm.Analyzer, tm.Elapsed.Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "sdvmlint: total %v\n", total.Round(time.Millisecond))
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sdvmlint: %d finding(s) in %d packages\n",
			len(findings), len(prog.Pkgs))
		os.Exit(1)
	}
	if *budget > 0 && total > *budget {
		fmt.Fprintf(os.Stderr, "sdvmlint: run took %v, over the %v budget\n",
			total.Round(time.Millisecond), *budget)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "sdvmlint: clean (%d packages)\n", len(prog.Pkgs))
}

// moduleRoot walks from the working directory up to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
