package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// report is the JSON document of one set of runs (-json).
type report struct {
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	Runs       []runRecord `json:"runs"`
}

// runRecord is one child run.
type runRecord struct {
	Workload string `json:"workload"`
	Pass     string `json:"pass"` // "untraced" or "traced"
	Seed     int64  `json:"seed"`
	// Killed marks a child that did not deliver a result (crashed, or
	// stopped at its deadline); it counts as one failed op.
	Killed bool   `json:"killed,omitempty"`
	Result result `json:"result"`
}

// suite runs the selected workloads, each pass of each in a process of its
// own: a wedged or crashed cluster then costs that run alone, and
// cpu_ms_per_op and peak_rss_mb are per workload.
type suite struct {
	workloads  []workload
	pass       string
	seed       int64
	seconds    float64
	runs       int
	outDir     string
	jsonPath   string
	appendJSON bool
}

// commit returns the VCS revision the binary was built from.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// run executes the suite and reports whether every run was correct.
func (s suite) run() (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	rep := report{
		Seed: s.seed, Seconds: s.seconds, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	if s.jsonPath != "" && s.appendJSON {
		if old, err := readReport(s.jsonPath); err == nil {
			rep.Runs = old.Runs
		} else if !errors.Is(err, os.ErrNotExist) {
			return false, err
		}
	}
	fmt.Printf("seed %d, %gs windows, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		rep.Seed, rep.Seconds, rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.Commit)

	allCorrect := true
	for _, w := range s.workloads {
		var plan []runRecord
		if s.pass != "traced" {
			for i := 0; i < s.runs; i++ {
				plan = append(plan, runRecord{Workload: w.name, Pass: "untraced", Seed: s.seed + int64(i)})
			}
		}
		if s.pass != "untraced" {
			plan = append(plan, runRecord{Workload: w.name, Pass: "traced", Seed: s.seed})
		}
		for _, rec := range plan {
			s.child(self, &rec)
			if !rec.Result.Correct {
				allCorrect = false
			}
			rep.Runs = append(rep.Runs, rec)
		}
	}
	fmt.Println()
	for _, rec := range rep.Runs {
		fmt.Printf("%-14s %-9s seed %-4d failed_share %d/%d\n", rec.Workload, rec.Pass, rec.Seed, rec.Result.Failed, rec.Result.Attempted)
	}
	if s.jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(s.jsonPath, append(buf, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allCorrect, nil
}

// child runs one workload and pass in a child process and fills rec from
// the last line of its output. The child gets three times its expected
// run time; past that it is sent SIGQUIT, which makes the Go runtime dump
// every goroutine, and the dump is saved next to the span files.
func (s suite) child(self string, rec *runRecord) {
	traced := rec.Pass == "traced"
	expected := time.Duration((2.5*s.seconds + 15) * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 3*expected)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-workload", rec.Workload, "-seed", fmt.Sprint(rec.Seed), "-seconds", fmt.Sprint(s.seconds),
		"-trace", fmt.Sprint(btoi(traced)), "-out", s.outDir)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGQUIT) }
	cmd.WaitDelay = 10 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	for _, line := range lines[:len(lines)-1] {
		fmt.Println(line)
	}
	if err == nil {
		err = json.Unmarshal([]byte(last), &rec.Result)
	}
	if err != nil {
		rec.Killed = true
		rec.Result = result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
		path := filepath.Join(s.outDir, fmt.Sprintf("hang-%s-%s.txt", rec.Workload, rec.Pass))
		if werr := os.MkdirAll(s.outDir, 0o755); werr == nil {
			_ = os.WriteFile(path, stderr.Bytes(), 0o644) // best effort: the run is already reported as failed
		}
		fmt.Printf("%s %s: child failed (%v); its stderr is in %s\n", rec.Workload, rec.Pass, err, path)
	}
}

func readReport(path string) (report, error) {
	var rep report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
