package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture tests: each testdata/<name> directory is a tiny module seeded
// with violations. A `// want "substr"` comment (several quoted strings
// allowed per comment) marks the line where the named analyzer must
// report a finding whose message contains the substring; every other
// line must stay quiet. The harness runs findings through the same
// //sdvmlint:allow filtering as the CLI, so directive suppression is
// exercised too.

var (
	wantRe   = regexp.MustCompile(`//\s*want\s+(".+)`)
	quotedRe = regexp.MustCompile(`"([^"]*)"`)
)

type wantKey struct {
	file string // basename: fixtures never repeat file names
	line int
}

func collectWants(prog *Program) map[wantKey][]string {
	wants := make(map[wantKey][]string)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					k := wantKey{filepath.Base(pos.Filename), pos.Line}
					for _, q := range quotedRe.FindAllStringSubmatch(m[1], -1) {
						wants[k] = append(wants[k], q[1])
					}
				}
			}
		}
	}
	return wants
}

func runFixture(t *testing.T, fixture string, as ...Analyzer) {
	t.Helper()
	prog, err := Load(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	wants := collectWants(prog)
	for _, f := range Run(prog, as) {
		k := wantKey{filepath.Base(f.Pos.Filename), f.Pos.Line}
		matched := -1
		for i, w := range wants[k] {
			if strings.Contains(f.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding at %s:%d: %s", k.file, k.line, f.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, rem := range wants {
		for _, w := range rem {
			t.Errorf("missing finding at %s:%d matching %q", k.file, k.line, w)
		}
	}
}

func TestLockholdFixture(t *testing.T) { runFixture(t, "lockhold", newLockhold()) }

func TestSleepfreeFixture(t *testing.T) { runFixture(t, "sleepfree", newSleepfree(nil)) }

func TestLockorderFixture(t *testing.T) { runFixture(t, "lockorder", newLockorder()) }

func TestChanownerFixture(t *testing.T) { runFixture(t, "chanowner", newChanowner()) }

func TestWiretaintFixture(t *testing.T) { runFixture(t, "wiretaint", newWiretaint()) }

func TestAllocfreeFixture(t *testing.T) { runFixture(t, "allocfree", newAllocfree()) }

func TestPoolownerFixture(t *testing.T) { runFixture(t, "poolowner", newPoolowner()) }

func TestDetpathFixture(t *testing.T) { runFixture(t, "detpath", newDetpath()) }

// TestDirectivesFixture runs two analyzers at once over a fixture built
// around //sdvmlint:allow directives — multi-analyzer lists in comma and
// space form, directives above multi-line statements — and doubles as
// the regression test for _test.go exclusion: the fixture contains an
// excluded_test.go whose violations must never surface.
func TestDirectivesFixture(t *testing.T) {
	runFixture(t, "directives", newLockhold(), newSleepfree(nil))
}

// TestRepoClean runs the full suite over the repository itself, so `go
// test ./...` fails the build on any unsuppressed finding — the same
// gate cmd/sdvmlint enforces in CI.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root := filepath.Join("..", "..")
	prog, err := Load(root)
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	for _, f := range Run(prog, All()) {
		t.Errorf("%s", f)
	}
}
