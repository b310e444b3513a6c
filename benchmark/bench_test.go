package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables this
// program reports from equal, and inside the limits of the contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}

	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", b.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		check(w.Name)
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, b.EndToEnd...), b.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// smokeSizes shrinks every workload so that all seven run in seconds.
var smokeSizes = sizes{
	fibN:         12,
	relayTokens:  50,
	relayStages:  8,
	piChunks:     8,
	piSamples:    200,
	hotObjects:   16,
	hotBytes:     256,
	hotWriteOnce: 16,
	pingObjects:  4,
	pingBytes:    64,
	primesP:      20,
	primesWidth:  10,
	primesCost:   1,
	waitTimeout:  20 * time.Second,
}

// TestSmoke runs all seven workloads at tiny sizes, both passes (the
// untraced one alone under -short), and checks that every run is correct
// and prints every metric BENCHMARK.json names exactly once.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			cfg := runConfig{
				w: w, seed: 1, seconds: 0.2, traced: traced, outDir: t.TempDir(),
				sz: smokeSizes, setups: 2, probeFor: 10 * time.Millisecond, log: io.Discard,
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			var out bytes.Buffer
			printMetrics(&out, cfg, res)
			printed := make(map[string]int)
			for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[0] == w.name {
					printed[f[1]]++
				} else {
					t.Errorf("%s: unexpected line %q", w.name, line)
				}
			}
			if len(printed) != len(want) || len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d reported, want %d", w.name, traced, len(printed), len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if printed[m.Name] != 1 || !ok {
					t.Errorf("%s traced=%v: %s printed %d times, reported %v", w.name, traced, m.Name, printed[m.Name], ok)
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, want %q", w.name, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (!traced && got.Value <= 0) {
					t.Errorf("%s: %s = %v", w.name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestSelfTime: a span's self time is its duration minus what its
// children cover, overlapping children counted once, and children
// reaching past the parent clipped.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: noSpan},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: covers 30..50 anew
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to 90..100
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
		{Name: "open", Start: 60, End: 0, Parent: 0}, // never closed: covers nothing
	}
	got := selfTimes(spans)
	want := []int64{100 - 20 - 20 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	st := summarize(spans)
	if len(st.durUS["open"]) != 0 {
		t.Error("an unclosed span must not be summarized")
	}
}

// TestPercentileRule: report the highest percentile with at least ten
// samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		have bool
	}{
		{5, 0, false}, {19, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true},
		{999, 0.9, true}, {1000, 0.99, true}, {30000, 0.999, true}, {100000, 0.9999, true},
	} {
		q, ok := tailQuantile(c.n)
		if ok != c.have || (ok && q != c.q) {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.have)
		}
	}
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(asc, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := quantile(asc, 1); got != 10 {
		t.Errorf("max of 1..10 = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if got := spreadShare([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("spread share = %v", got)
	}
}

// TestJudge covers the four verdicts of -compare.
func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{steady(100), steady(103), verdictSame},
		{steady(100), steady(120), verdictWorse},
		{steady(100), steady(80), verdictBetter},
		{[]float64{60, 100, 140, 80, 120}, steady(100), verdictUnresolved},
		{nil, steady(100), verdictUnresolved},
	} {
		if _, _, got := judge(lower, c.a, c.b); got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	higher := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.10}
	if _, _, got := judge(higher, steady(100), steady(120)); got != verdictBetter {
		t.Errorf("a higher-is-better metric that rose is %s", got)
	}
}

// TestRelayInputs: the token set is a function of the seed, its byte
// volume is not, and the expected sum follows the payloads.
func TestRelayInputs(t *testing.T) {
	a := relayTokens(rand.New(rand.NewSource(7)), 4000)
	b := relayTokens(rand.New(rand.NewSource(7)), 4000)
	c := relayTokens(rand.New(rand.NewSource(8)), 4000)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different tokens")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same tokens")
	}
	if relayPayloadBytes(a, 8) != relayPayloadBytes(c, 8) {
		t.Error("the payload volume depends on the seed")
	}
	if want := int64(8 * (2800*64 + 1000*4096 + 200*65536)); relayPayloadBytes(a, 8) != want {
		t.Errorf("payload volume %d, want %d", relayPayloadBytes(a, 8), want)
	}
	if relayExpected(a, 8) == relayExpected(c, 8) {
		t.Error("the expected sum does not depend on the payloads")
	}
}
