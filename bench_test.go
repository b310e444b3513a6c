package sdvm

// Benchmarks regenerating the paper's evaluation (§5) and the DESIGN.md
// ablations that still have a switch (A-2 window, A-3 security). Each
// benchmark iteration is one complete program run on a fresh in-process
// cluster; time/op is therefore the quantity the paper tabulates
// (application wall-clock time).
//
// The default parameters are scaled down (see internal/bench) so the
// whole sweep stays in CI range: p∈{100,200} instead of the paper's
// {100,200,500,1000}, with 6 ms per candidate test instead of ≈60 ms.
// `cmd/sdvmbench -exp table1 -full` reruns every published row and
// prints the side-by-side table; EXPERIMENTS.md records the outcome.
//
// Deriving the paper's numbers from the benchmark output:
//
//	speedup(4) = time(BenchmarkTable1Primes/pXwYs1) / time(.../pXwYs4)
//	overhead   = time(BenchmarkOverheadSDVM1Site) / time(BenchmarkOverheadSequential) - 1

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
)

// benchWorkUnit maps one Work unit to 1 ms; with benchCost = 6 a
// candidate test costs 6 ms — 1/10 of the paper's ≈60 ms, the scale at
// which the compute-to-communication ratio of the 2005 testbed (and
// hence the speedup shape) is preserved. See EXPERIMENTS.md.
const benchWorkUnit = time.Millisecond

// benchCost is the Work units per candidate test.
const benchCost = 6.0

// BenchmarkTable1Primes regenerates Table 1's grid (reduced p set; see
// the package comment). One op = one full program run.
func BenchmarkTable1Primes(b *testing.B) {
	for _, p := range []int{100, 200} {
		for _, width := range []int{10, 20} {
			for _, sites := range []int{1, 4, 8} {
				name := fmt.Sprintf("p%dw%ds%d", p, width, sites)
				b.Run(name, func(b *testing.B) {
					spec := bench.Spec{Sites: sites, WorkUnit: benchWorkUnit}
					for i := 0; i < b.N; i++ {
						elapsed, err := bench.RunPrimes(spec, p, width, benchCost)
						if err != nil {
							b.Fatal(err)
						}
						_ = elapsed
					}
				})
			}
		}
	}
}

// BenchmarkOverheadSequential is the stand-alone program of experiment
// O-1 ([5]: SDVM overhead ≈3 %).
func BenchmarkOverheadSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RunSeqPrimes(100, 10, benchCost, benchWorkUnit)
	}
}

// BenchmarkOverheadSDVM1Site is the same computation on a 1-site SDVM.
func BenchmarkOverheadSDVM1Site(b *testing.B) {
	spec := bench.Spec{Sites: 1, WorkUnit: benchWorkUnit}
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunPrimes(spec, 100, 10, benchCost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyWindow is ablation A-2: the processing manager's
// latency-hiding window (paper: ≈5 microthreads in virtual parallel) on
// the memory-bound matmul workload over a 2 ms-latency network.
func BenchmarkLatencyWindow(b *testing.B) {
	for _, w := range []int{1, 2, 5, 10} {
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			spec := bench.Spec{Sites: 4, WorkUnit: benchWorkUnit}
			for i := 0; i < b.N; i++ {
				out, err := bench.WindowSweep(spec, []int{w}, 24, 4, 1)
				if err != nil {
					b.Fatal(err)
				}
				_ = out
			}
		})
	}
}

// BenchmarkSecurity is ablation A-3: the security manager's cost
// (paper §4: disable it inside trusted clusters "in favor of a
// performance gain").
func BenchmarkSecurity(b *testing.B) {
	for _, mode := range []struct {
		name   string
		secret string
	}{{"plaintext", ""}, {"aesgcm", "bench-secret"}} {
		b.Run(mode.name, func(b *testing.B) {
			spec := bench.Spec{Sites: 4, WorkUnit: benchWorkUnit, Secret: mode.secret}
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunPrimes(spec, 100, 10, benchCost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChurn measures a run with one site joining and one signing
// off mid-computation (paper §3.4) against a static cluster.
func BenchmarkChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Churn(bench.Spec{Sites: 4, WorkUnit: benchWorkUnit}, 100, 10, benchCost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHetero measures a fully heterogeneous cluster (every site a
// distinct platform, all code compiled on the fly; paper §3.4 claims the
// compilation is "fast enough not to slow the system too much").
func BenchmarkHetero(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Hetero(bench.Spec{Sites: 4, WorkUnit: benchWorkUnit},
			100, 10, benchCost, 2*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if res.Compiles == 0 {
			b.Fatal("no on-the-fly compiles")
		}
	}
}
