// Package metrics provides the performance metrics the paper reports:
// per-thread IPC, weighted IPC (relative progress versus a single-threaded
// run), the Fair Throughput metric of Luo et al. [7] — the harmonic mean
// of weighted IPCs — and the integer histograms behind the
// dependent-count figures.
package metrics

import "fmt"

// Histogram counts non-negative integer observations; values at or above
// the bucket count land in Overflow.
type Histogram struct {
	Counts   []uint64
	Overflow uint64
	total    uint64
	sum      uint64
}

// NewHistogram builds a histogram with buckets for values 0..max-1.
func NewHistogram(max int) *Histogram {
	if max < 1 {
		panic("metrics: histogram needs at least one bucket")
	}
	return &Histogram{Counts: make([]uint64, max)}
}

// Add records one observation. Negative values panic.
func (h *Histogram) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("metrics: negative histogram value %d", v))
	}
	if v < len(h.Counts) {
		h.Counts[v]++
	} else {
		h.Overflow++
	}
	h.total++
	h.sum += uint64(v)
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all observed values (overflowed values count at
// their true magnitude).
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Merge adds other's counts into h. Bucket counts must match.
func (h *Histogram) Merge(other *Histogram) {
	if len(h.Counts) != len(other.Counts) {
		panic("metrics: merging histograms of different shapes")
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.Overflow += other.Overflow
	h.total += other.total
	h.sum += other.sum
}

// WeightedIPC is a thread's relative progress: its IPC in the
// multithreaded run divided by its IPC when running alone.
func WeightedIPC(multi, single float64) float64 {
	if single <= 0 {
		return 0
	}
	return multi / single
}

// HarmonicMean returns the harmonic mean of strictly positive values; any
// non-positive value makes the result 0 (a fully starved thread gives the
// workload a fair throughput of zero, which is the metric's intent).
func HarmonicMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += 1 / v
	}
	return float64(len(vals)) / sum
}

// FairThroughput is the paper's FT metric: the harmonic mean of the
// threads' weighted IPCs.
func FairThroughput(weighted []float64) float64 { return HarmonicMean(weighted) }

// Speedup returns (b-a)/a as a fraction (e.g. 0.30 for +30%).
func Speedup(baseline, improved float64) float64 {
	if baseline <= 0 {
		return 0
	}
	return (improved - baseline) / baseline
}
