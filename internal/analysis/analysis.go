// Package analysis implements sdvmlint, the SDVM repository's static
// analysis suite. It is built only on the standard library's go/ast,
// go/parser, go/token and go/types packages (the repo's stdlib-only rule)
// and machine-checks the concurrency and protocol invariants that
// neither the Go compiler nor the tests (go vet, go test, -race) catch.
// DESIGN.md §6 holds the mutation table that keeps each analyzer here:
//
//   - lockhold: no sync.Mutex/RWMutex held across a blocking operation
//     (channel send/receive, bus request, transport send, time.Sleep);
//   - sleepfree: no bare time.Sleep in production packages outside an
//     explicit allowlist;
//   - lockorder: the global mutex-acquisition graph is acyclic — a cycle
//     is a potential deadlock, reported with a witness call chain per
//     edge;
//   - chanowner: every channel struct field has exactly one closing
//     owner, closes stay in the declaring package, and no send follows
//     the close in straight-line code;
//   - wiretaint: values decoded from network bytes must pass a
//     recognized validation (bounds clamp, roster membership, Valid())
//     before sizing allocations, indexing, bounding loops or choosing
//     routing destinations — tracked interprocedurally through
//     per-function transfer summaries;
//   - allocfree: functions annotated //sdvm:hotpath must not allocate
//     transitively — make/new/append, interface boxing, closures,
//     string conversions and known-allocating stdlib calls are reported
//     with a root-to-site witness chain;
//   - poolowner: pooled wire buffers (wire.GetWriter) are tracked
//     path-sensitively over a per-function CFG — every path must
//     Release exactly once or transfer ownership, uses after Release
//     and retention of //sdvm:borrowed parameters or decoder views are
//     reported;
//   - detpath: functions reachable from //sdvm:deterministic roots
//     must not reach wall-clock time, global math/rand, map-range
//     iteration, goroutine launches or unresolvable dynamic calls —
//     each finding carries a root-to-site witness chain.
//
// The interprocedural analyzers (and the interprocedural half of
// lockhold) run on a conservative whole-module call graph built in
// callgraph.go/ipstate.go; the shared dataflow propagation (witness
// chains, may-fact fixpoints, forward reachability) lives in dataflow.go, and the intraprocedural CFG the
// path-based analyzers use lives in cfg.go. Construction rules and
// soundness caveats are documented on the engine and the framework.
//
// A finding can be suppressed with a line directive — on the offending
// line or the line above it:
//
//	//sdvmlint:allow sleepfree -- simulated compile cost is the model
//
// (//sdvm:allow is accepted as a synonym.) poolowner and detpath
// findings additionally require the "-- <reason>" justification: a
// bare allow without a reason does not suppress them, so every
// ownership or determinism waiver is self-documenting.
//
// The driver (cmd/sdvmlint) exits nonzero on any unsuppressed finding.
package analysis

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Finding is one analyzer report.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one pass over a loaded program.
type Analyzer interface {
	Name() string
	Run(prog *Program) []Finding
}

// All returns the full suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		newLockhold(),
		newSleepfree(defaultSleepAllowlist),
		newLockorder(),
		newChanowner(),
		newWiretaint(),
		newAllocfree(),
		newPoolowner(),
		newDetpath(),
	}
}

// requireReason lists the analyzers whose findings can only be
// suppressed by an allow directive carrying a "-- <reason>"
// justification.
var requireReason = map[string]bool{
	"poolowner": true,
	"detpath":   true,
}

// Timing records one analyzer's wall-clock cost for a run.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// Run executes the analyzers and filters findings through the
// //sdvmlint:allow directives, returning the survivors sorted by
// position.
func Run(prog *Program, analyzers []Analyzer) []Finding {
	findings, _ := RunWithTimings(prog, analyzers)
	return findings
}

// RunWithTimings is Run plus per-analyzer wall-clock timings, in
// analyzer order. The first analyzer's timing absorbs the lazy
// call-graph engine construction the interprocedural passes share.
func RunWithTimings(prog *Program, analyzers []Analyzer) ([]Finding, []Timing) {
	allow := collectAllows(prog)
	var out []Finding
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		for _, f := range a.Run(prog) {
			if allow.allowed(a.Name(), f.Pos, requireReason[a.Name()]) {
				continue
			}
			out = append(out, f)
		}
		timings = append(timings, Timing{Analyzer: a.Name(), Elapsed: time.Since(start)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, timings
}

// allowSet records, per file and line, which analyzers are suppressed
// and whether the directive carried a "-- <reason>" justification. A
// directive covers its own line and the next one, so it can sit at the
// end of the offending line or on a comment line directly above it.
// The value is true when a justification is present.
type allowSet map[string]map[int]map[string]bool

// allowRe accepts both directive spellings: //sdvmlint:allow (the
// original) and //sdvm:allow (matching the other sdvm: annotations).
var allowRe = regexp.MustCompile(`sdvm(?:lint)?:allow\s+([a-z, ]+)`)

func collectAllows(prog *Program) allowSet {
	set := make(allowSet)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := allowRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					names := m[1]
					justified := false
					if i := strings.Index(c.Text, "--"); i >= 0 {
						justified = strings.TrimSpace(c.Text[i+2:]) != ""
					}
					pos := prog.Fset.Position(c.Pos())
					lines := set[pos.Filename]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						set[pos.Filename] = lines
					}
					for _, name := range strings.FieldsFunc(names, func(r rune) bool {
						return r == ',' || r == ' ' || r == '\t'
					}) {
						for _, line := range []int{pos.Line, pos.Line + 1} {
							if lines[line] == nil {
								lines[line] = make(map[string]bool)
							}
							lines[line][name] = lines[line][name] || justified
						}
					}
				}
			}
		}
	}
	return set
}

// allowed reports whether a finding at pos is suppressed. When the
// analyzer requires a justification, only a directive with a non-empty
// "-- <reason>" counts.
func (s allowSet) allowed(analyzer string, pos token.Position, needReason bool) bool {
	justified, ok := s[pos.Filename][pos.Line][analyzer]
	if !ok {
		return false
	}
	return !needReason || justified
}
