// Command benchcmp is CI's allocation gate. It parses `go test
// -benchmem` text output and enforces two invariants the zero-allocation
// wire path depends on:
//
//  1. every benchmark matching -require-zero reports 0 allocs/op
//     (and the regex must match at least one benchmark, so a renamed
//     benchmark cannot silently disable the gate), and
//  2. no benchmark present in the committed allocation baseline
//     (-allocs-base, a JSON object of name -> allocs/op) reports more
//     allocs/op than the baseline records.
//
// Usage:
//
//	go test -run=NONE -bench . -benchmem ./internal/wire | tee bench.txt
//	benchcmp -allocs bench.txt -allocs-base bench.allocs.json \
//	         -require-zero '^BenchmarkEncode/|^BenchmarkDecode/'
//
// Wall-clock performance is judged by the benchmark module
// (benchmark/run.sh -compare), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
)

func main() {
	var (
		allocsPath     = flag.String("allocs", "", "go test -benchmem output file ('-' = stdin)")
		basePath       = flag.String("allocs-base", "", "JSON allocation baseline (name -> allocs/op)")
		requireZeroPat = flag.String("require-zero", "", "regex of benchmarks that must report 0 allocs/op")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchcmp: "+format+"\n", args...)
		os.Exit(1)
	}
	if *allocsPath == "" {
		fail("-allocs is required")
	}

	var in io.Reader = os.Stdin
	if *allocsPath != "-" {
		f, err := os.Open(*allocsPath)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBenchmem(in)
	if err != nil {
		fail("parsing benchmem output: %v", err)
	}
	if len(got) == 0 {
		fail("no benchmark results found in %s", *allocsPath)
	}

	base := map[string]int{}
	if *basePath != "" {
		buf, err := os.ReadFile(*basePath)
		if err != nil {
			fail("%v", err)
		}
		if err := json.Unmarshal(buf, &base); err != nil {
			fail("%s: baseline must be a JSON object of name -> allocs/op: %v", *basePath, err)
		}
	}

	var requireZero *regexp.Regexp
	if *requireZeroPat != "" {
		requireZero, err = regexp.Compile(*requireZeroPat)
		if err != nil {
			fail("bad -require-zero pattern: %v", err)
		}
	}

	for _, name := range sortedKeys(got) {
		marks := ""
		if requireZero != nil && requireZero.MatchString(name) {
			marks += " [must-be-zero]"
		}
		if b, ok := base[name]; ok {
			marks += fmt.Sprintf(" [baseline %d]", b)
		}
		fmt.Printf("  %-50s %3d allocs/op%s\n", name, got[name], marks)
	}

	if fails := checkAllocs(got, base, requireZero); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "benchcmp: allocation gate failed:\n")
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchcmp: allocation gate passed (%d benchmarks, %d in baseline)\n",
		len(got), len(base))
}
