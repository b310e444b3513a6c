package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares set b against set a for one metric: the medians differ
// by more than the bound in the metric's good or bad direction, or they
// do not. Where either set's own spread (quartile distance over median)
// exceeds the bound, the sets cannot resolve a change of that size.
func judge(spec metricSpec, a, b []float64) (medA, medB float64, verdict string) {
	medA, medB = median(a), median(b)
	if len(a) == 0 || len(b) == 0 || medA == 0 {
		return medA, medB, verdictUnresolved
	}
	if spreadShare(a) > spec.Bound || spreadShare(b) > spec.Bound {
		return medA, medB, verdictUnresolved
	}
	gain := (medB - medA) / medA
	if spec.Better == "lower" {
		gain = -gain
	}
	switch {
	case gain > spec.Bound:
		return medA, medB, verdictBetter
	case gain < -spec.Bound:
		return medA, medB, verdictWorse
	}
	return medA, medB, verdictSame
}

// compareReports prints one row per end-to-end metric and workload, plus
// one failed_share row per workload (any increase is worse).
func compareReports(out io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tbound\truns A/B\tverdict\n")
	for _, w := range allWorkloads {
		ra, rb := untraced(a, w.name), untraced(b, w.name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		for _, spec := range endToEnd {
			medA, medB, verdict := judge(spec, values(ra, spec.Name), values(rb, spec.Name))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.0f%%\t%d/%d\t%s\n",
				w.name, spec.Name, spec.Unit, medA, medB, 100*spec.Bound, len(ra), len(rb), verdict)
		}
		shareA, shareB := failedShare(ra), failedShare(rb)
		verdict := verdictSame
		switch {
		case len(ra) == 0 || len(rb) == 0:
			verdict = verdictUnresolved
		case shareB > shareA:
			verdict = verdictWorse
		case shareB < shareA:
			verdict = verdictBetter
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tshare\t%.6g\t%.6g\tany\t%d/%d\t%s\n",
			w.name, shareA, shareB, len(ra), len(rb), verdict)
	}
	return tw.Flush()
}

// untraced returns a report's untraced runs of one workload.
func untraced(rep report, workload string) []runRecord {
	var out []runRecord
	for _, r := range rep.Runs {
		if r.Workload == workload && r.Pass == "untraced" {
			out = append(out, r)
		}
	}
	return out
}

// values collects one metric over runs that delivered it.
func values(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedShare is failed ops over attempted ops across runs.
func failedShare(runs []runRecord) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}
