package main

import (
	"strings"
	"testing"
)

func selected(t *testing.T, list string) []string {
	t.Helper()
	exps, err := selectExperiments(list)
	if err != nil {
		t.Fatalf("selectExperiments(%q): %v", list, err)
	}
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.name
	}
	return out
}

func TestSelectExperimentsKnownNames(t *testing.T) {
	for _, tc := range []struct{ list, want string }{
		{"overhead", "overhead"},
		// Table order, each once, blanks ignored.
		{"scalestorm, table1,,scalestorm", "table1,scalestorm"},
		{"all", strings.Join(names(), ",")},
		{"overhead,all", strings.Join(names(), ",")},
	} {
		if got := strings.Join(selected(t, tc.list), ","); got != tc.want {
			t.Errorf("selectExperiments(%q) = %s, want %s", tc.list, got, tc.want)
		}
	}
}

// A typo next to a valid name must fail the whole selection, not shrink
// the run to its valid part.
func TestSelectExperimentsRejectsEveryUnknownName(t *testing.T) {
	for _, tc := range []struct {
		list string
		bad  []string
	}{
		{"overhead,memstres", []string{`"memstres"`}},
		{"memread,overhead,memstress", []string{`"memread"`, `"memstress"`}},
		{"all,bogus", []string{`"bogus"`}},
		{"nope", []string{`"nope"`}},
	} {
		exps, err := selectExperiments(tc.list)
		if err == nil {
			t.Errorf("selectExperiments(%q) = %d experiments, want an error", tc.list, len(exps))
			continue
		}
		for _, name := range tc.bad {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("selectExperiments(%q) error %q does not name %s", tc.list, err, name)
			}
		}
	}
}

func TestSelectExperimentsRejectsEmptyList(t *testing.T) {
	for _, list := range []string{"", " , "} {
		if _, err := selectExperiments(list); err == nil {
			t.Errorf("selectExperiments(%q) accepted an empty selection", list)
		}
	}
}
