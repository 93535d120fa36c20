package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// Figure identifiers, in paper order.
const (
	Fig1 = "Figure 1: # instructions dependent on a long-latency load (Baseline_32)"
	Fig2 = "Figure 2: FT with 2-Level R-ROB16 vs Baseline_32 / Baseline_128"
	Fig3 = "Figure 3: # load dependents with 2-Level R-ROB16"
	Fig4 = "Figure 4: FT with 2-Level Relaxed R-ROB15"
	Fig5 = "Figure 5: FT with 2-Level CDR-ROB15"
	Fig6 = "Figure 6: FT with 2-Level P-ROB3 / P-ROB5"
	Fig7 = "Figure 7: # load dependents with 2-Level P-ROB5"
)

// WriteFTTable renders a Figure-2-style per-mix fair-throughput table.
func WriteFTTable(w io.Writer, title string, series []SchemeSeries) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s", "Mix")
	for _, s := range series {
		fmt.Fprintf(w, "  %22s", s.Label)
	}
	fmt.Fprintln(w)
	for i := range series[0].Rows {
		fmt.Fprintf(w, "%-8s", series[0].Rows[i].Mix)
		for _, s := range series {
			fmt.Fprintf(w, "  %22.4f", s.Rows[i].FairThroughput)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s", "Average")
	for _, s := range series {
		fmt.Fprintf(w, "  %22.4f", s.AvgFT)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s", "Speedup")
	for _, s := range series {
		fmt.Fprintf(w, "  %21.2f%%", 100*s.Speedup)
	}
	fmt.Fprintln(w)
}

// WriteDoDHistogram renders a Figure-1-style dependent-count table: one
// row per dependent count (1..31), one column per mix.
func WriteDoDHistogram(w io.Writer, title string, rows []MixRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-6s", "#Dep")
	for _, r := range rows {
		fmt.Fprintf(w, " %8s", strings.ReplaceAll(r.Mix, "Mix ", "M"))
	}
	fmt.Fprintln(w)
	for dep := 1; dep <= 31; dep++ {
		fmt.Fprintf(w, "%-6d", dep)
		for _, r := range rows {
			h := r.Result.Raw.DoDHist
			var c uint64
			if dep < len(h.Counts) {
				c = h.Counts[dep]
			}
			fmt.Fprintf(w, " %8d", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-6s", "mean")
	for _, r := range rows {
		fmt.Fprintf(w, " %8.2f", r.DoDMean)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s", "total")
	for _, r := range rows {
		fmt.Fprintf(w, " %8d", r.Result.Raw.DoDHist.Total())
	}
	fmt.Fprintln(w)
}

// DoDGrowth returns the relative increase of the mean dependent count of
// series b over series a (the paper reports +56% for R-ROB and +120% for
// P-ROB versus the baseline).
func DoDGrowth(a, b SchemeSeries) float64 {
	return metrics.Speedup(a.AvgDoD, b.AvgDoD)
}

// WriteTable1 documents the simulated machine configuration.
func WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Configuration of the Simulation Environment")
	rows := [][2]string{
		{"Machine width", "8-wide fetch (2 threads/cycle), 8-wide issue, 8-wide commit"},
		{"Window size", "per thread: 32-entry 1st-level ROB, 48-entry LSQ; shared: 64-entry IQ"},
		{"Second-level ROB", "384 entries, allocated as a unit to one thread at a time"},
		{"Function units", "8 IntAdd(1/1), 4 IntMult(3/1)/Div(20/19), 4 Ld/St(2/1), 8 FPAdd(2/1), 4 FPMult(4/1)/Div(12/12)/Sqrt(24/24)"},
		{"Registers", "224 integer + 224 floating-point rename registers"},
		{"L1 I-cache", "64 KB, 2-way, 64 B lines, 1-cycle hit"},
		{"L1 D-cache", "32 KB, 4-way, 32 B lines, 1-cycle hit"},
		{"L2 cache", "unified 2 MB, 8-way, 128 B lines, 10-cycle hit"},
		{"BTB", "2048-entry, 2-way"},
		{"Branch predictor", "2K-entry gShare, 10-bit history per thread"},
		{"Load-hit predictor", "2-bit, 1K entries, 8-bit history per thread"},
		{"Fetch policy", "ICOUNT 2.8 (the paper: ICOUNT ordering, DCRA resource sharing)"},
		{"Memory", "64-bit wide, 500-cycle first chunk, 2-cycle interchunk"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %s\n", r[0], r[1])
	}
}

// WriteTable2 documents the simulated benchmark mixes.
func WriteTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Simulated Benchmark Mixes")
	for _, m := range workload.Mixes {
		fmt.Fprintf(w, "  %-8s %-28s %s\n", m.Name, strings.Join(m.Benchmarks[:], ", "), m.Classification)
	}
}
