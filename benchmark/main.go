// Command benchmark is the SDVM benchmark: seven workloads that stress
// different layers, end-to-end metrics from an untraced pass, per-layer
// metrics from a traced pass, and a check of every output. See README.md.
//
// With -workload it runs one workload once and prints one JSON result as
// the last line of standard output (the form BENCHMARK.json's command
// uses). Without it, it runs every selected workload in a child process
// of its own, both passes, and prints every metric by name and unit.
// With -compare it judges two reports against the benchmark's bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// childLimit is when a single run gives up on a wedged cluster: it saves
// the goroutine summary, reports the run as failed and exits, so that a
// dead-lock in the program costs one run and not the whole benchmark.
const childLimit = 150 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload once and print its JSON result last")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 10, "length of the measured window of each run")
		trace        = flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for span files and hang reports")
		names        = flag.String("workloads", "", "comma-separated subset of workloads (default all)")
		pass         = flag.String("pass", "both", "passes to run: untraced, traced or both")
		runs         = flag.Int("runs", 1, "untraced runs per workload, on seeds seed, seed+1, ...")
		jsonPath     = flag.String("json", "", "write the report of all runs to this file")
		appendJSON   = flag.Bool("append", false, "with -json: add the runs to an existing report instead of replacing it")
		compare      = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
	case *workloadName != "":
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal("unknown workload %q", *workloadName)
		}
		runChild(runConfig{
			w: w, seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *outDir,
			sz: benchSizes, setups: setupsPerRun(w.spec), probeFor: 300 * time.Millisecond, log: os.Stdout,
		})
	default:
		selected, err := selectWorkloads(*names)
		if err != nil {
			fatal("%v", err)
		}
		if *pass != "untraced" && *pass != "traced" && *pass != "both" {
			fatal("-pass must be untraced, traced or both")
		}
		s := suite{
			workloads: selected, pass: *pass, seed: *seed, seconds: *seconds, runs: *runs,
			outDir: *outDir, jsonPath: *jsonPath, appendJSON: *appendJSON,
		}
		ok, err := s.run()
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func selectWorkloads(csv string) ([]workload, error) {
	if csv == "" {
		return allWorkloads, nil
	}
	var out []workload
	for _, name := range strings.Split(csv, ",") {
		w, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

// runChild performs one run and prints its result as the last line. A run
// that outlives childLimit is reported as one failed op.
func runChild(cfg runConfig) {
	hung := time.AfterFunc(childLimit, func() {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("hang-%s-trace%d.txt", cfg.w.name, btoi(cfg.traced)))
		if err := saveGoroutines(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		}
		fmt.Printf("%s: no result within %v; goroutine summary in %s\n", cfg.w.name, childLimit, path)
		printResult(result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}})
		os.Exit(0)
	})
	res, err := runWorkload(cfg)
	hung.Stop()
	if err != nil {
		fatal("%s: %v", cfg.w.name, err)
	}
	printMetrics(os.Stdout, cfg, res)
	printResult(res)
}

// printMetrics prints every metric of the run's pass by name and unit.
func printMetrics(out io.Writer, cfg runConfig, res result) {
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	for _, spec := range specs {
		m := res.Metrics[spec.Name]
		fmt.Fprintf(out, "%-14s %-30s %16.6g %s\n", cfg.w.name, spec.Name, m.Value, m.Unit)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printResult(res result) {
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

// saveGoroutines writes the goroutine profile grouped by stack: the state
// summary of a wedged run.
func saveGoroutines(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 1); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
