package bench

import (
	"testing"
	"time"
)

// The harness's own tests run tiny configurations: they validate the
// measurement plumbing, not the headline numbers (cmd/sdvmbench produces
// those).

func quickSpec() Spec {
	return Spec{Sites: 2, WorkUnit: 500 * time.Microsecond}
}

func TestRunPrimesVerifiesResult(t *testing.T) {
	elapsed, err := RunPrimes(quickSpec(), 20, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestSpeedupShapeSmall(t *testing.T) {
	// A coarse shape check: 4 sites must beat 1 site clearly on a
	// wide workload. (The full Table 1 is `sdvmbench -exp table1`.)
	spec := Spec{WorkUnit: time.Millisecond}
	spec.Sites = 1
	t1, err := RunPrimes(spec, 60, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec.Sites = 4
	t4, err := RunPrimes(spec, 60, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(t1) / float64(t4)
	t.Logf("T1=%v T4=%v speedup=%.2f", t1, t4, speedup)
	if speedup < 1.8 {
		t.Fatalf("speedup %.2f on 4 sites; distribution is broken", speedup)
	}
}

func TestOverheadSmall(t *testing.T) {
	res, err := Overhead(quickSpec(), 30, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seq=%v sdvm=%v overhead=%.1f%%", res.Seq, res.SDVM, 100*res.Overhead)
	if res.Overhead < -0.5 {
		t.Fatalf("SDVM 'overhead' is a huge speedup (%.2f); 1-site run is not sequential", res.Overhead)
	}
	if res.Overhead > 1.0 {
		t.Fatalf("overhead %.0f%% is far beyond the paper's ~3%%", 100*res.Overhead)
	}
}

func TestChurnSmall(t *testing.T) {
	res, err := Churn(Spec{Sites: 3, WorkUnit: time.Millisecond}, 50, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("static=%v churn=%v joined=%v", res.Static, res.Churn, res.Joined)
	if !res.Joined {
		t.Error("late joiner never worked")
	}
}

func TestCrashSmall(t *testing.T) {
	res, err := Crash(Spec{Sites: 3, WorkUnit: time.Millisecond}, 50, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean=%v crash=%v recoveries=%d checkpoints=%d",
		res.CrashFree, res.WithCrash, res.Recoveries, res.Checkpoints)
	if res.Checkpoints == 0 {
		t.Error("no checkpoints taken")
	}
}

func TestWindowSweepSmall(t *testing.T) {
	out, err := WindowSweep(Spec{Sites: 2, WorkUnit: 500 * time.Microsecond}, []int{1, 5}, 12, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d window results", len(out))
	}
	t.Logf("W=1: %v, W=5: %v", out[0].Elapsed, out[1].Elapsed)
}

func TestSecuritySmall(t *testing.T) {
	res, err := Security(Spec{Sites: 2, WorkUnit: 500 * time.Microsecond}, 20, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("plain=%v encrypted=%v", res.Plain, res.Encrypted)
}

func TestHeteroSmall(t *testing.T) {
	res, err := Hetero(Spec{Sites: 3, WorkUnit: 500 * time.Microsecond}, 30, 10, 2, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("homo=%v hetero=%v compiles=%d", res.Homogeneous, res.Hetero, res.Compiles)
	if res.Compiles == 0 {
		t.Error("hetero run compiled nothing")
	}
}

func TestTable1SingleRow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Table1(Spec{WorkUnit: 300 * time.Microsecond}, 2,
		[]Table1Row{{P: 100, Width: 10, PaperSpeedup4: 3.4, PaperSpeedup8: 6.4}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	t.Logf("p=%d w=%d: T1=%v T4=%v (S=%.2f, paper %.1f) T8=%v (S=%.2f, paper %.1f)",
		r.P, r.Width, r.T1, r.T4, r.Speedup4, r.PaperSpeedup4, r.T8, r.Speedup8, r.PaperSpeedup8)
	if r.Speedup4 < 2.0 {
		t.Errorf("4-site speedup %.2f far below the paper's %.1f", r.Speedup4, r.PaperSpeedup4)
	}
	if r.Speedup8 < 3.0 {
		t.Errorf("8-site speedup %.2f far below the paper's %.1f", r.Speedup8, r.PaperSpeedup8)
	}
}

func TestScaleCurveSmall(t *testing.T) {
	out, err := ScaleCurve(Spec{WorkUnit: 500 * time.Microsecond}, []int{1, 2, 4}, 40, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("%d points", len(out))
	}
	if out[0].Speedup != 1.0 {
		t.Fatalf("first speedup = %v", out[0].Speedup)
	}
	t.Logf("scale: %v", out)
	if out[2].Speedup < 1.3 {
		t.Fatalf("4-site speedup %.2f; scaling broken", out[2].Speedup)
	}
}

func TestHeterogeneousSpeedsSmall(t *testing.T) {
	res, err := HeterogeneousSpeeds(Spec{WorkUnit: time.Millisecond},
		[]float64{2.0, 0.5}, 40, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shares) != 2 {
		t.Fatalf("%d shares", len(res.Shares))
	}
	fast, slow := res.Shares[0].Executed, res.Shares[1].Executed
	t.Logf("fast=%d slow=%d", fast, slow)
	// A 4x speed difference must show up in the shares.
	if fast <= slow {
		t.Fatalf("fast site executed %d <= slow site's %d", fast, slow)
	}
}

func TestScaleStormSmall(t *testing.T) {
	pts, err := ScaleStorm([]int{8}, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("scalestorm returned %d points, want 1: %+v", len(pts), pts)
	}
	if pts[0].ConvergeMS <= 0 || pts[0].LeaveMS <= 0 {
		t.Fatalf("missing timings: %+v", pts[0])
	}
}
