package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile of an ascending sample
// (0 for an empty one).
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// median returns the middle of a sample, averaging the two middle values
// of an even-sized one.
func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	default:
		return (asc[n/2-1] + asc[n/2]) / 2
	}
}

// tailLadder lists the percentiles a timing may be reported at, as the
// share 1/beyond of the samples that lies beyond each.
var tailLadder = []struct {
	q      float64
	beyond int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// tailQuantile applies the percentile rule of the choosing-metrics guide:
// the highest percentile of the ladder that still has at least ten of n
// samples beyond it. ok is false when even the median has fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for _, p := range tailLadder {
		if n/p.beyond >= 10 {
			q, ok = p.q, true
		}
	}
	return q, ok
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver's repeatability check uses. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	m := len(asc)
	if m < 2 {
		if m == 1 {
			return asc[0], asc[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median (0 when the median is 0).
func spreadShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}
