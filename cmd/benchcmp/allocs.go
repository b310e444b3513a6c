// Parsing and checking for the allocation gate (see main.go).
package main

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
)

// benchmemLine matches one result line of -benchmem output, e.g.
//
//	BenchmarkEncode/apply-param-4   6799770   174.8 ns/op   312 B/op   3 allocs/op
//
// capturing the benchmark name and the allocs/op count.
var benchmemLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s.*?(\d+) allocs/op`)

// gomaxprocsSuffix is the trailing "-N" go test appends to benchmark
// names. Stripping it keeps baselines portable across CPU counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchmem extracts {benchmark name -> allocs/op} from go test
// -benchmem output. Lines that are not benchmark results (headers,
// PASS, ok) are ignored. A benchmark appearing twice keeps the larger
// count, so a flaky extra allocation cannot hide behind a clean rerun.
func parseBenchmem(r io.Reader) (map[string]int, error) {
	out := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		m := benchmemLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		n, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		if prev, ok := out[name]; !ok || n > prev {
			out[name] = n
		}
	}
	return out, sc.Err()
}

// checkAllocs applies the two gate rules and returns the failures in
// deterministic order (empty slice = gate passed).
func checkAllocs(got, base map[string]int, requireZero *regexp.Regexp) []string {
	var fails []string
	if requireZero != nil {
		matched := 0
		for _, name := range sortedKeys(got) {
			if !requireZero.MatchString(name) {
				continue
			}
			matched++
			if got[name] != 0 {
				fails = append(fails, fmt.Sprintf(
					"%s: %d allocs/op, must be 0", name, got[name]))
			}
		}
		if matched == 0 {
			fails = append(fails, fmt.Sprintf(
				"require-zero pattern %q matched no benchmark; gate would be vacuous", requireZero))
		}
	}
	for _, name := range sortedKeys(base) {
		n, ok := got[name]
		if !ok {
			fails = append(fails, fmt.Sprintf(
				"%s: in allocation baseline but missing from this run", name))
			continue
		}
		if n > base[name] {
			fails = append(fails, fmt.Sprintf(
				"%s: %d allocs/op, baseline %d — allocation regression", name, n, base[name]))
		}
	}
	return fails
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
