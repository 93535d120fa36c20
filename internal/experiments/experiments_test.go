package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/workload"
)

func tinyRunner() *Runner {
	return NewRunner(Params{Budget: 6_000, Seed: 1})
}

func TestSingleIPCsCached(t *testing.T) {
	r := tinyRunner()
	a, err := r.SingleIPCs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) < 15 {
		t.Fatalf("%d single IPCs", len(a))
	}
	b, err := r.SingleIPCs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("cache miss for %s", k)
		}
	}
}

func TestRunSchemeShape(t *testing.T) {
	r := tinyRunner()
	s, err := r.RunScheme(context.Background(), Baseline32())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 11 {
		t.Fatalf("%d rows", len(s.Rows))
	}
	if s.AvgFT <= 0 {
		t.Fatalf("avg FT %v", s.AvgFT)
	}
	for _, row := range s.Rows {
		if row.Result.Cycles == 0 {
			t.Fatalf("%s did not run", row.Mix)
		}
	}
}

func TestFTComparisonSpeedups(t *testing.T) {
	r := tinyRunner()
	series, err := r.FTComparison(context.Background(), Baseline32(), RROB(16))
	if err != nil {
		t.Fatal(err)
	}
	if series[0].Speedup != 0 {
		t.Fatalf("baseline speedup %v", series[0].Speedup)
	}
	if series[1].Label != "2-Level R-ROB16" {
		t.Fatalf("label %q", series[1].Label)
	}
}

func TestReportRendering(t *testing.T) {
	r := tinyRunner()
	series, err := r.FTComparison(context.Background(), Baseline32(), RROB(16))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteFTTable(&sb, Fig2, series)
	out := sb.String()
	for _, want := range []string{"Mix 1", "Mix 11", "Average", "Speedup", "Baseline_32"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}

	rows, err := r.DoDHistogram(context.Background(), Baseline32())
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	WriteDoDHistogram(&sb, Fig1, rows)
	if !strings.Contains(sb.String(), "mean") || !strings.Contains(sb.String(), "M11") {
		t.Fatalf("histogram table malformed:\n%s", sb.String())
	}

	sb.Reset()
	WriteTable1(&sb)
	if !strings.Contains(sb.String(), "500-cycle first chunk") {
		t.Fatal("Table 1 missing memory row")
	}
	sb.Reset()
	WriteTable2(&sb)
	if !strings.Contains(sb.String(), "Mix 10") {
		t.Fatal("Table 2 missing rows")
	}
}

func TestSchemeSpecLabels(t *testing.T) {
	cases := map[string]SchemeSpec{
		"Baseline_32":             Baseline32(),
		"Baseline_128":            Baseline128(),
		"2-Level R-ROB16":         RROB(16),
		"2-Level Relaxed R-ROB15": RelaxedRROB(15),
		"2-Level CDR-ROB15":       CDRROB(15),
		"2-Level P-ROB5":          PROB(5),
	}
	for want, spec := range cases {
		if spec.Label != want {
			t.Errorf("label %q != %q", spec.Label, want)
		}
	}
}

func TestSweeps(t *testing.T) {
	r := tinyRunner()
	pts, err := r.SweepDoDThreshold(context.Background(), []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Value != 4 || pts[1].Value != 16 {
		t.Fatalf("points: %+v", pts)
	}
	for _, p := range pts {
		if p.AvgFT <= 0 {
			t.Fatalf("degenerate sweep point %+v", p)
		}
	}
	var sb strings.Builder
	WriteSweep(&sb, "t", pts)
	if !strings.Contains(sb.String(), "avg FT") {
		t.Fatal("sweep rendering broken")
	}
}

func TestDoDGrowth(t *testing.T) {
	a := SchemeSeries{AvgDoD: 10}
	b := SchemeSeries{AvgDoD: 15.6}
	if g := DoDGrowth(a, b); g < 0.55 || g > 0.57 {
		t.Fatalf("growth = %v", g)
	}
}

// TestRunSchemeCancellation verifies the satellite requirement that a
// caller can abort a sweep: once ctx is cancelled, no further mixes are
// dispatched, the call returns the context error, and the workers are
// freed well before all 11 mixes have run.
func TestRunSchemeCancellation(t *testing.T) {
	r := NewRunner(Params{Budget: 20_000, Seed: 1, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var mixesDone atomic.Int32
	r.OnProgress = func(p Progress) {
		if p.Stage == "mix" {
			if mixesDone.Add(1) == 1 {
				cancel() // cancel as soon as the first mix completes
			}
		}
	}
	_, err := r.RunScheme(ctx, Baseline32())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := mixesDone.Load(); n >= 11 {
		t.Fatalf("sweep ran to completion (%d mixes) despite cancellation", n)
	}
}

func TestRunSchemePreCancelled(t *testing.T) {
	r := tinyRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunScheme(ctx, Baseline32()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunMixesSubset verifies subset runs only evaluate (and only report)
// the requested mixes.
func TestRunMixesSubset(t *testing.T) {
	r := tinyRunner()
	mix, ok := workload.MixByName("Mix 1")
	if !ok {
		t.Fatal("Mix 1 missing")
	}
	s, err := r.RunMixes(context.Background(), Baseline32(), []workload.Mix{mix})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 1 || s.Rows[0].Mix != "Mix 1" {
		t.Fatalf("rows: %+v", s.Rows)
	}
	if s.AvgFT != s.Rows[0].FairThroughput {
		t.Fatalf("avg %v != row %v", s.AvgFT, s.Rows[0].FairThroughput)
	}
}

// TestSchemeByNameMsimSpellings: every spelling cmd/msim accepted before
// it shared this table resolves to the rob.Scheme msim gave it, and to
// the same SchemeSpec as the table's own name for that scheme.
func TestSchemeByNameMsimSpellings(t *testing.T) {
	for _, tc := range []struct {
		msim, canonical string
		want            tlrob.Scheme
	}{
		{"baseline", "baseline", tlrob.Baseline},
		{"reactive", "rrob", tlrob.Reactive},
		{"r-rob", "rrob", tlrob.Reactive},
		{"relaxed", "relaxed-rrob", tlrob.RelaxedReactive},
		{"relaxed-reactive", "relaxed-rrob", tlrob.RelaxedReactive},
		{"cdr", "cdr-rrob", tlrob.CountDelayed},
		{"count-delayed", "cdr-rrob", tlrob.CountDelayed},
		{"predictive", "prob", tlrob.Predictive},
		{"p-rob", "prob", tlrob.Predictive},
		{"shared", "shared128", tlrob.SharedSingle},
		{"shared-single", "shared128", tlrob.SharedSingle},
	} {
		for _, threshold := range []int{0, 7} {
			got, err := SchemeByName(tc.msim, threshold)
			if err != nil {
				t.Fatalf("%q: %v", tc.msim, err)
			}
			if got.Opt.Scheme != tc.want {
				t.Errorf("%q resolves to %v, msim gave %v", tc.msim, got.Opt.Scheme, tc.want)
			}
			if want, _ := SchemeByName(tc.canonical, threshold); got != want {
				t.Errorf("%q (threshold %d) resolves to %+v, %q to %+v", tc.msim, threshold, got, tc.canonical, want)
			}
		}
	}
	if _, err := SchemeByName("no-such-scheme", 0); err == nil {
		t.Error("unknown scheme accepted")
	}
}
