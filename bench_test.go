package tlrob

// The benchmark harness regenerates every figure of the paper's evaluation
// (one benchmark per figure, plus ablations for the design knobs called
// out in DESIGN.md §6). Each b.N iteration performs one full sweep of the
// eleven Table-2 mixes under the figure's configurations and reports the
// headline quantity as a custom metric, e.g.:
//
//	go test -bench=Fig2 -benchmem
//
// reports fairthroughput/op for each configuration and the speedup over
// Baseline_32 — the shape to compare against the paper's bars. Budgets are
// small (simulation is expensive); cmd/experiments runs the bigger sweeps.

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

const benchBudget = 20_000

// sweepFT runs one scheme over all 11 mixes and returns the average fair
// throughput (the paper's "Average" bar).
func sweepFT(b *testing.B, opt Options, singles map[string]float64) float64 {
	b.Helper()
	total := 0.0
	for _, mix := range workload.Mixes {
		res, err := RunMix(mix, opt, singles)
		if err != nil {
			b.Fatal(err)
		}
		total += res.FairThroughput
	}
	return total / float64(len(workload.Mixes))
}

// sweepDoD runs one scheme over all mixes and returns the mean service-time
// dependent count (the quantity of Figures 1/3/7).
func sweepDoD(b *testing.B, opt Options, singles map[string]float64) float64 {
	b.Helper()
	total := 0.0
	for _, mix := range workload.Mixes {
		res, err := RunMix(mix, opt, singles)
		if err != nil {
			b.Fatal(err)
		}
		total += res.DoDMean
	}
	return total / float64(len(workload.Mixes))
}

func benchSingles(b *testing.B) map[string]float64 {
	b.Helper()
	names := map[string]bool{}
	for _, m := range workload.Mixes {
		for _, n := range m.Benchmarks {
			names[n] = true
		}
	}
	var list []string
	for n := range names {
		list = append(list, n)
	}
	singles, err := SingleIPCs(list, Options{Budget: benchBudget})
	if err != nil {
		b.Fatal(err)
	}
	return singles
}

func benchFT(b *testing.B, opts map[string]Options) {
	singles := benchSingles(b)
	for name, opt := range opts {
		opt.Budget = benchBudget
		b.Run(name, func(b *testing.B) {
			var ft float64
			for i := 0; i < b.N; i++ {
				ft = sweepFT(b, opt, singles)
			}
			b.ReportMetric(ft, "fairthroughput")
		})
	}
}

func benchDoD(b *testing.B, opts map[string]Options) {
	singles := benchSingles(b)
	for name, opt := range opts {
		opt.Budget = benchBudget
		b.Run(name, func(b *testing.B) {
			var dod float64
			for i := 0; i < b.N; i++ {
				dod = sweepDoD(b, opt, singles)
			}
			b.ReportMetric(dod, "mean-dependents")
		})
	}
}

// BenchmarkFig1DoDHistogram regenerates Figure 1: the distribution of
// load dependents at miss-service time on the Baseline_32 machine.
func BenchmarkFig1DoDHistogram(b *testing.B) {
	benchDoD(b, map[string]Options{
		"Baseline32": {Scheme: Baseline, L1ROB: 32},
	})
}

// BenchmarkFig2ReactiveROB regenerates Figure 2: Baseline_32 vs
// Baseline_128 vs 2-Level R-ROB16 fair throughput.
func BenchmarkFig2ReactiveROB(b *testing.B) {
	benchFT(b, map[string]Options{
		"Baseline32":  {Scheme: Baseline, L1ROB: 32},
		"Baseline128": {Scheme: Baseline, L1ROB: 128},
		"RROB16":      {Scheme: Reactive, DoDThreshold: 16},
	})
}

// BenchmarkFig3DoDHistogramRROB regenerates Figure 3: dependents observed
// under 2-Level R-ROB16 (the paper reports +56% vs Figure 1).
func BenchmarkFig3DoDHistogramRROB(b *testing.B) {
	benchDoD(b, map[string]Options{
		"RROB16": {Scheme: Reactive, DoDThreshold: 16},
	})
}

// BenchmarkFig4RelaxedRROB regenerates Figure 4: 2-Level Relaxed R-ROB15.
func BenchmarkFig4RelaxedRROB(b *testing.B) {
	benchFT(b, map[string]Options{
		"Baseline32":    {Scheme: Baseline, L1ROB: 32},
		"RelaxedRROB15": {Scheme: RelaxedReactive, DoDThreshold: 15},
	})
}

// BenchmarkFig5CDRROB regenerates Figure 5: 2-Level CDR-ROB15 with the
// 32-cycle counting delay.
func BenchmarkFig5CDRROB(b *testing.B) {
	benchFT(b, map[string]Options{
		"Baseline32": {Scheme: Baseline, L1ROB: 32},
		"CDRROB15":   {Scheme: CountDelayed, DoDThreshold: 15, CountDelay: 32},
	})
}

// BenchmarkFig6PredictiveROB regenerates Figure 6: 2-Level P-ROB3/P-ROB5.
func BenchmarkFig6PredictiveROB(b *testing.B) {
	benchFT(b, map[string]Options{
		"Baseline32": {Scheme: Baseline, L1ROB: 32},
		"PROB3":      {Scheme: Predictive, DoDThreshold: 3},
		"PROB5":      {Scheme: Predictive, DoDThreshold: 5},
	})
}

// BenchmarkFig7DoDHistogramPROB regenerates Figure 7: dependents under the
// predictive scheme (the paper reports +120% vs Figure 1).
func BenchmarkFig7DoDHistogramPROB(b *testing.B) {
	benchDoD(b, map[string]Options{
		"PROB5": {Scheme: Predictive, DoDThreshold: 5},
	})
}

// ---- ablations (DESIGN.md §6) ----

// BenchmarkAblationDoDThreshold sweeps the reactive DoD threshold — the
// paper's §5.2 observation that overly large thresholds permit IQ clog.
func BenchmarkAblationDoDThreshold(b *testing.B) {
	opts := map[string]Options{}
	for _, th := range []int{2, 4, 8, 16, 31} {
		opts[fmt.Sprintf("RROB%d", th)] = Options{Scheme: Reactive, DoDThreshold: th}
	}
	benchFT(b, opts)
}

// BenchmarkAblationSecondLevelSize sweeps the shared second-level size.
func BenchmarkAblationSecondLevelSize(b *testing.B) {
	opts := map[string]Options{}
	for _, size := range []int{96, 192, 384, 768} {
		opts[fmt.Sprintf("L2ROB%d", size)] = Options{Scheme: Reactive, DoDThreshold: 16, L2ROB: size}
	}
	benchFT(b, opts)
}

// BenchmarkAblationCountDelay sweeps the CDR snapshot delay (§4.1's
// counting-accuracy vs exploitation-window trade-off).
func BenchmarkAblationCountDelay(b *testing.B) {
	opts := map[string]Options{}
	for _, d := range []int{8, 16, 32, 64} {
		opts[fmt.Sprintf("CDR-delay%d", d)] = Options{Scheme: CountDelayed, DoDThreshold: 15, CountDelay: d}
	}
	benchFT(b, opts)
}

// BenchmarkAblationPredictorIndexing compares PC-indexed vs path-hashed
// DoD prediction (§4.2's gshare-style variant).
func BenchmarkAblationPredictorIndexing(b *testing.B) {
	benchFT(b, map[string]Options{
		"PROB5-pc":   {Scheme: Predictive, DoDThreshold: 5},
		"PROB5-path": {Scheme: Predictive, DoDThreshold: 5, PredPathHash: true},
	})
}

// BenchmarkAblationMSHRs sweeps the outstanding-miss limit, bounding the
// MLP the second-level window can realize.
func BenchmarkAblationMSHRs(b *testing.B) {
	opts := map[string]Options{}
	for _, n := range []int{4, 16, 64} {
		opts[fmt.Sprintf("MSHR%d", n)] = Options{Scheme: Reactive, DoDThreshold: 16, MSHRs: n}
	}
	benchFT(b, opts)
}

// BenchmarkAblationFetchPolicy crosses the baseline with the four fetch
// policies the related-work section discusses.
func BenchmarkAblationFetchPolicy(b *testing.B) {
	benchFT(b, map[string]Options{
		"DCRA":   {Policy: DCRA},
		"ICOUNT": {Policy: ICOUNT},
		"STALL":  {Policy: STALL},
		"FLUSH":  {Policy: FLUSH},
		"MLP":    {Policy: MLP},
	})
}

// BenchmarkAblationSharedVsPrivate reproduces the related-work comparison
// of Raasch & Reinhardt [9]: a fully shared single-level ROB against the
// statically partitioned private baseline at equal total entries. Sharing
// lets memory-bound threads monopolize the pool — the monopolization the
// paper's one-at-a-time second level is designed to avoid.
func BenchmarkAblationSharedVsPrivate(b *testing.B) {
	benchFT(b, map[string]Options{
		"Private32x4": {Scheme: Baseline, L1ROB: 32},
		"Shared128":   {Scheme: SharedSingle, L1ROB: 32},
		"Private64x4": {Scheme: Baseline, L1ROB: 64},
		"Shared256":   {Scheme: SharedSingle, L1ROB: 64},
	})
}

// BenchmarkAblationEarlyRegRelease measures the paper's named synergy
// [24]: conservative early register deallocation under the reactive
// two-level scheme, which relieves the rename-pool pressure that
// otherwise bounds the extended window.
func BenchmarkAblationEarlyRegRelease(b *testing.B) {
	benchFT(b, map[string]Options{
		"RROB16":       {Scheme: Reactive, DoDThreshold: 16},
		"RROB16-early": {Scheme: Reactive, DoDThreshold: 16, EarlyRegRelease: true},
	})
}

// BenchmarkTelemetryOverhead prices the instrumentation layer: the same
// R-ROB16 run of Mix 1 with telemetry off (the default everyone pays)
// and on. The off side must match the seed's allocation profile —
// telemetry disabled is one nil check per cycle — and the on side
// bounds the cost of full stall attribution plus occupancy sampling.
func BenchmarkTelemetryOverhead(b *testing.B) {
	singles := benchSingles(b)
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := Options{Scheme: Reactive, DoDThreshold: 16, Budget: benchBudget, Telemetry: mode.on}
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := RunMix(workload.Mixes[0], opt, singles)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}
