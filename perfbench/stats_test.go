package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}, {0.01, 1},
	} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, tc.q, got, tc.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no values should be 0")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.90, 90, true},   // exactly 10 beyond
		{100, 0.95, 95, false},  // 5 beyond
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 990, false}, // 9 beyond
		{20, 0.5, 10, true},
	} {
		got, ok := tail(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("tail(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
	}
}

// A p99 over a 95/5 mix of fast and slow requests reports a slow one;
// split by class, each class's p99 stays inside that class.
func TestClassSplitKeepsPercentilesInsideClasses(t *testing.T) {
	var classes []string
	var values []float64
	for i := 0; i < 2000; i++ {
		if i%20 == 0 {
			classes, values = append(classes, "miss"), append(values, 17+float64(i%7)/10)
		} else {
			classes, values = append(classes, "hit"), append(values, 0.7+float64(i%5)/100)
		}
	}
	if mixed := quantile(values, 0.99); mixed < 17 {
		t.Fatalf("mixed p99 = %v, expected it to land on a miss", mixed)
	}
	byClass := classSplit(classes, values)
	if len(byClass["hit"]) != 1900 || len(byClass["miss"]) != 100 {
		t.Fatalf("split sizes %d/%d", len(byClass["hit"]), len(byClass["miss"]))
	}
	if p99, ok := tail(byClass["hit"], 0.99); !ok || p99 > 1 {
		t.Errorf("hit p99 = %v (ok %v), want a hit latency", p99, ok)
	}
	if p90, ok := tail(byClass["miss"], 0.90); !ok || p90 < 17 {
		t.Errorf("miss p90 = %v (ok %v), want a miss latency", p90, ok)
	}
}

// The expected values come from Python's statistics.quantiles(v, n=4),
// the definition the bounds in BENCHMARK.json are checked with:
// (q3 - q1) / median.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{5, 1, 4}, (5.0 - 1.0) / 4.0},
		{[]float64{10, 20}, (22.5 - 7.5) / 15.0},
		{[]float64{3.5, 1.25, 9, 7, 7, 2, 8.5}, (8.5 - 2.0) / 7.0},
		{[]float64{4}, 0},
	} {
		if got := spread(tc.v); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
}
