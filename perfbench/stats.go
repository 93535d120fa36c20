package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile; with fewer, the value is one or two outliers, not a tail.
const minTailSamples = 10

// quantile returns the nearest-rank q-quantile of values (0 < q <= 1);
// values need not be sorted. It returns 0 for no values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	return s[rank(len(s), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail returns the q-quantile of values and whether at least
// minTailSamples samples lie beyond it, so the value is safe to report.
func tail(values []float64, q float64) (float64, bool) {
	n := len(values)
	if n == 0 {
		return 0, false
	}
	return quantile(values, q), n-rank(n, q) >= minTailSamples
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// classSplit groups per-operation samples by class, so that no
// percentile is ever taken over operations of different kinds: a p99
// over a 95/5 mix of 0.7 ms hits and 17 ms misses lands on the class
// boundary and jumps between runs.
func classSplit(classes []string, values []float64) map[string][]float64 {
	out := make(map[string][]float64)
	for i, c := range classes {
		out[c] = append(out[c], values[i])
	}
	return out
}

// geomean is the geometric mean of positive values; it combines per-class
// figures without letting the largest class dominate.
func geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

// spread is the interquartile range of values as a share of their
// median, with quartiles computed exactly as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method). It is the figure the bounds in BENCHMARK.json are checked
// against.
func spread(values []float64) float64 {
	ld := len(values)
	if ld < 2 {
		return 0
	}
	s := sortedCopy(values)
	var qs [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		qs[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	if qs[1] == 0 {
		return 0
	}
	return (qs[2] - qs[0]) / qs[1]
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
