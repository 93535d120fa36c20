package experiments_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/workload"
)

// TestRunMixesMatchesSequential holds Runner.RunMixes, which runs a
// call's mixes and references on one pool and scores each row when its
// last run finishes, to the sequential path: tlrob.SingleIPCs first,
// then tlrob.RunMix with the finished references. Rows, their report
// JSON and the order of progress events must agree at every worker
// count.
func TestRunMixesMatchesSequential(t *testing.T) {
	const budget = 2_000
	mixes := func(names ...string) []workload.Mix {
		out := make([]workload.Mix, len(names))
		for i, n := range names {
			m, ok := workload.MixByName(n)
			if !ok {
				t.Fatalf("%s missing", n)
			}
			out[i] = m
		}
		return out
	}
	spec := experiments.RROB(16)
	for _, set := range [][]workload.Mix{mixes("Mix 1"), mixes("Mix 10"), mixes("Mix 2", "Mix 5", "Mix 11")} {
		for seed := uint64(1); seed <= 3; seed++ {
			want := sequentialSeries(t, spec, set, budget, seed)
			wantJSON, err := json.Marshal(report.FromSeries(want, true))
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 3; workers++ {
				name := fmt.Sprintf("%s+%d mixes/seed %d/%d workers", set[0].Name, len(set)-1, seed, workers)
				t.Run(name, func(t *testing.T) {
					r := experiments.NewRunner(experiments.Params{Budget: budget, Seed: seed, Workers: workers, Telemetry: true})
					var mu sync.Mutex
					var events []experiments.Progress
					r.OnProgress = func(p experiments.Progress) {
						mu.Lock()
						events = append(events, p)
						mu.Unlock()
					}
					got, err := r.RunMixes(context.Background(), spec, set)
					if err != nil {
						t.Fatal(err)
					}
					for i, row := range got.Rows {
						compareRows(t, row, want.Rows[i])
					}
					gotJSON, err := json.Marshal(report.FromSeries(got, true))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotJSON, wantJSON) {
						t.Errorf("report JSON differs:\n got %s\nwant %s", gotJSON, wantJSON)
					}
					checkEventOrder(t, events, got)
				})
			}
		}
	}
}

// sequentialSeries builds the series the old schedule produced: every
// reference first, then each mix scored as it finishes.
func sequentialSeries(t *testing.T, spec experiments.SchemeSpec, set []workload.Mix, budget, seed uint64) experiments.SchemeSeries {
	t.Helper()
	out := experiments.SchemeSeries{Label: spec.Label}
	opt := spec.Opt
	opt.Budget, opt.Seed, opt.Telemetry = budget, seed, true
	for _, mix := range set {
		singles, err := tlrob.SingleIPCs(mix.Benchmarks[:], tlrob.Options{Budget: budget, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tlrob.RunMix(mix, opt, singles)
		if err != nil {
			t.Fatal(err)
		}
		out.Rows = append(out.Rows, experiments.MixRow{
			Mix: mix.Name, FairThroughput: res.FairThroughput,
			Throughput: res.Throughput, DoDMean: res.DoDMean, Result: res,
		})
		out.AvgFT += res.FairThroughput
		out.AvgDoD += res.DoDMean
		out.AvgIPC += res.Throughput
	}
	n := float64(len(set))
	out.AvgFT /= n
	out.AvgDoD /= n
	out.AvgIPC /= n
	return out
}

func compareRows(t *testing.T, got, want experiments.MixRow) {
	t.Helper()
	if got.Mix != want.Mix || got.FairThroughput != want.FairThroughput ||
		got.Throughput != want.Throughput || got.DoDMean != want.DoDMean {
		t.Errorf("%s: row %s FT %v IPC %v DoD %v, want %s FT %v IPC %v DoD %v", want.Mix,
			got.Mix, got.FairThroughput, got.Throughput, got.DoDMean,
			want.Mix, want.FairThroughput, want.Throughput, want.DoDMean)
	}
	if got.Result.FairThroughput != want.Result.FairThroughput {
		t.Errorf("%s: result FT %v, want %v", want.Mix, got.Result.FairThroughput, want.Result.FairThroughput)
	}
	if !reflect.DeepEqual(got.Result.Threads, want.Result.Threads) {
		t.Errorf("%s: threads (weighted IPCs) %+v, want %+v", want.Mix, got.Result.Threads, want.Result.Threads)
	}
	if !reflect.DeepEqual(got.Result.Raw, want.Result.Raw) {
		t.Errorf("%s: raw results differ", want.Mix)
	}
	if got.Result.Telemetry == nil || !reflect.DeepEqual(got.Result.Telemetry, want.Result.Telemetry) {
		t.Errorf("%s: telemetry summary %+v, want %+v", want.Mix, got.Result.Telemetry, want.Result.Telemetry)
	}
}

// checkEventOrder requires each mix event to follow the single events of
// its mix's benchmarks and to carry its row's fair throughput.
func checkEventOrder(t *testing.T, events []experiments.Progress, got experiments.SchemeSeries) {
	t.Helper()
	singleAt := map[string]int{}
	mixes := 0
	for k, ev := range events {
		switch ev.Stage {
		case "single":
			if _, dup := singleAt[ev.Item]; dup {
				t.Errorf("reference %s ran twice", ev.Item)
			}
			singleAt[ev.Item] = k
		case "mix":
			mixes++
			mix, _ := workload.MixByName(ev.Item)
			for _, b := range mix.Benchmarks {
				if at, ok := singleAt[b]; !ok || at > k {
					t.Errorf("%s event at %d precedes its %s reference", ev.Item, k, b)
				}
			}
			if row := got.Rows[ev.Index]; row.Mix != ev.Item || row.FairThroughput != ev.FairThroughput {
				t.Errorf("%s event FT %v, row %s FT %v", ev.Item, ev.FairThroughput, row.Mix, row.FairThroughput)
			}
		default:
			t.Errorf("unknown stage %q", ev.Stage)
		}
	}
	if mixes != len(got.Rows) {
		t.Errorf("%d mix events for %d rows", mixes, len(got.Rows))
	}
}
