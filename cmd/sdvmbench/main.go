// Command sdvmbench regenerates the paper's evaluation (§5) and the
// experiments listed in DESIGN.md that still have a switch, printing the
// same rows the paper reports next to the published numbers.
//
// Usage:
//
//	sdvmbench -exp table1            # Table 1 (reduced p set)
//	sdvmbench -exp table1 -full      # Table 1, all published rows
//	sdvmbench -exp overhead          # O-1: SDVM vs sequential (~3 %)
//	sdvmbench -exp churn             # §3.4 dynamic entry & exit
//	sdvmbench -exp crash             # §2.2/§6 crash recovery
//	sdvmbench -exp hetero            # §3.4 on-the-fly compilation
//	sdvmbench -exp window            # A-2 latency-hiding window
//	sdvmbench -exp security          # A-3 encryption cost
//	sdvmbench -exp scale             # goal 5 scalability curve
//	sdvmbench -exp speeds            # §3.5 heterogeneous speeds
//	sdvmbench -exp scalestorm        # P-4 gossip membership at 64–256 sites
//	sdvmbench -exp all               # everything
//
// -exp also accepts a comma-separated list; an unknown name anywhere in
// it exits 2 before anything runs. A failing experiment exits 1, which
// is how CI gates `-exp scalestorm` (every roster must converge and the
// sign-off must spread). Performance is measured by the benchmark module
// (benchmark/, BENCHMARK.json), not here. The A-1 and A-4 to A-7
// ablations and P-1, P-2 and P-5 measured code or switches the tree no
// longer has; EXPERIMENTS.md records their results and the commit to
// rerun them at.
//
// The -scale flag maps one Work unit to wall-clock microseconds; the
// default 1000 (1 ms) runs the evaluation at roughly 1/30 of the paper's
// 2005 testbed speed with the default -cost 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// params are the flag values the experiments draw from.
type params struct {
	spec bench.Spec
	cost float64 // Work units per prime-candidate test
	full bool    // table1: every published row
}

type experiment struct {
	name, title string
	run         func(params) error
}

// experiments lists every -exp name in the order a multi-name run uses.
var experiments = []experiment{
	{"table1", "Table 1 — speedup of the parallel prime computation", expTable1},
	{"overhead", "O-1 — SDVM overhead vs stand-alone sequential ([5]: ≈3 %)", expOverhead},
	{"churn", "§3.4 — dynamic entry and exit at runtime", expChurn},
	{"crash", "§2.2/§6 — crash detection and recovery", expCrash},
	{"hetero", "§3.4 — heterogeneous cluster, on-the-fly compilation", expHetero},
	{"window", "A-2 — latency-hiding window (paper: ≈5)", expWindow},
	{"security", "A-3 — security manager on/off", expSecurity},
	{"scale", "goal 5 — scalability curve", expScale},
	{"speeds", "§3.5 — load balancing across heterogeneous speeds", expSpeeds},
	{"scalestorm", "P-4 — gossip membership dissemination at 64/128/256 sites", expScaleStorm},
}

// selectExperiments resolves a comma-separated -exp value to the
// experiments to run, in table order and each once. "all" selects every
// experiment. Any name that is not known is an error naming each such
// name, so a typo cannot silently shrink a run to its valid part.
func selectExperiments(list string) ([]experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var out []experiment
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			out = append(out, e)
		}
		delete(want, e.name)
	}
	delete(want, "all")
	known := strings.Join(names(), ", ") + ", all"
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, fmt.Sprintf("%q", name))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s (known: %s)", strings.Join(unknown, ", "), known)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiment selected (known: %s)", known)
	}
	return out, nil
}

func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment(s), comma-separated: "+strings.Join(names(), "|")+"|all")
		full  = flag.Bool("full", false, "table1: run every published row (p up to 1000); slow")
		scale = flag.Int("scale", 1000, "wall-clock microseconds per Work unit")
		cost  = flag.Float64("cost", 2.0, "Work units per prime-candidate test")
	)
	flag.Parse()

	exps, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdvmbench: %v\n", err)
		os.Exit(2)
	}
	p := params{
		spec: bench.Spec{WorkUnit: time.Duration(*scale) * time.Microsecond},
		cost: *cost,
		full: *full,
	}
	for _, e := range exps {
		fmt.Printf("==> %s\n", e.title)
		start := time.Now()
		if err := e.run(p); err != nil {
			fmt.Fprintf(os.Stderr, "sdvmbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("    (experiment took %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
}

func expTable1(p params) error {
	rows := bench.PaperTable1
	if !p.full {
		rows = []bench.Table1Row{rows[0], rows[1], rows[4], rows[5]} // p∈{100,200}
	}
	got, err := bench.Table1(p.spec, p.cost, rows)
	if err != nil {
		return err
	}
	fmt.Printf("    %5s %6s | %10s %10s %10s | %8s %8s | %8s %8s\n",
		"p", "width", "1 site", "4 sites", "8 sites", "S4", "S8", "paper-S4", "paper-S8")
	for _, r := range got {
		fmt.Printf("    %5d %6d | %10v %10v %10v | %8.2f %8.2f | %8.1f %8.1f\n",
			r.P, r.Width,
			r.T1.Round(time.Millisecond), r.T4.Round(time.Millisecond), r.T8.Round(time.Millisecond),
			r.Speedup4, r.Speedup8, r.PaperSpeedup4, r.PaperSpeedup8)
	}
	return nil
}

func expOverhead(p params) error {
	res, err := bench.Overhead(p.spec, 100, 10, p.cost)
	if err != nil {
		return err
	}
	fmt.Printf("    sequential: %v   1-site SDVM: %v   overhead: %.1f%%   (paper: ≈3%%)\n",
		res.Seq.Round(time.Millisecond), res.SDVM.Round(time.Millisecond), 100*res.Overhead)
	return nil
}

func expChurn(p params) error {
	s := p.spec
	s.Sites = 4
	res, err := bench.Churn(s, 200, 10, p.cost)
	if err != nil {
		return err
	}
	fmt.Printf("    static 4-site run: %v   churn run (3 sites +1 join, -1 sign-off): %v   late joiner worked: %v\n",
		res.Static.Round(time.Millisecond), res.Churn.Round(time.Millisecond), res.Joined)
	return nil
}

func expCrash(p params) error {
	s := p.spec
	s.Sites = 4
	res, err := bench.Crash(s, 200, 10, p.cost)
	if err != nil {
		return err
	}
	fmt.Printf("    crash-free: %v   with one site crashing: %v   checkpoints: %d   recoveries: %d\n",
		res.CrashFree.Round(time.Millisecond), res.WithCrash.Round(time.Millisecond),
		res.Checkpoints, res.Recoveries)
	fmt.Printf("    (the result was verified correct in both runs)\n")
	return nil
}

func expHetero(p params) error {
	s := p.spec
	s.Sites = 4
	res, err := bench.Hetero(s, 200, 10, p.cost, 2*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Printf("    homogeneous: %v   all-distinct platforms: %v   on-the-fly compiles: %d\n",
		res.Homogeneous.Round(time.Millisecond), res.Hetero.Round(time.Millisecond), res.Compiles)
	return nil
}

func expWindow(p params) error {
	s := p.spec
	s.Sites = 4
	out, err := bench.WindowSweep(s, []int{1, 2, 3, 5, 8, 16}, 32, 4, 1)
	if err != nil {
		return err
	}
	for _, r := range out {
		marker := ""
		if r.Window == 5 {
			marker = "   <- paper's choice"
		}
		fmt.Printf("    W=%-2d : %v%s\n", r.Window, r.Elapsed.Round(time.Millisecond), marker)
	}
	return nil
}

func expSecurity(p params) error {
	s := p.spec
	s.Sites = 4
	res, err := bench.Security(s, 200, 10, p.cost)
	if err != nil {
		return err
	}
	fmt.Printf("    plaintext: %v   AES-GCM: %v   (+%.1f%%)\n",
		res.Plain.Round(time.Millisecond), res.Encrypted.Round(time.Millisecond),
		100*(float64(res.Encrypted)-float64(res.Plain))/float64(res.Plain))
	return nil
}

func expScale(p params) error {
	out, err := bench.ScaleCurve(p.spec, []int{1, 2, 4, 8, 16}, 200, 20, p.cost)
	if err != nil {
		return err
	}
	for _, pt := range out {
		fmt.Printf("    %2d sites: %10v   speedup %.2f\n",
			pt.Sites, pt.Elapsed.Round(time.Millisecond), pt.Speedup)
	}
	return nil
}

func expSpeeds(p params) error {
	speeds := []float64{2.0, 1.0, 1.0, 0.5}
	res, err := bench.HeterogeneousSpeeds(p.spec, speeds, 200, 20, p.cost)
	if err != nil {
		return err
	}
	var total uint64
	for _, sh := range res.Shares {
		total += sh.Executed
	}
	fmt.Printf("    elapsed: %v\n", res.Elapsed.Round(time.Millisecond))
	for _, sh := range res.Shares {
		fmt.Printf("    %v speed=%.1f: executed %d (%.0f%%)\n",
			sh.Site, sh.Speed, sh.Executed, 100*float64(sh.Executed)/float64(total))
	}
	fmt.Printf("    (speed shares sum: 2.0+1.0+1.0+0.5 — a perfect balancer gives 44/22/22/11%%)\n")
	return nil
}

func expScaleStorm(params) error {
	points, err := bench.ScaleStorm([]int{64, 128, 256}, 200*time.Microsecond)
	for _, pt := range points {
		fmt.Printf("    %3d sites: join %8.1f ms   converge %8.1f ms   leave %8.1f ms\n",
			pt.Sites, pt.JoinMS, pt.ConvergeMS, pt.LeaveMS)
	}
	return err
}
