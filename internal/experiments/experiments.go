// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the DoD histograms of Figures 1, 3 and 7 and the
// fair-throughput comparisons of Figures 2, 4, 5 and 6, over the eleven
// Table-2 mixes. Runs are distributed across CPU cores; single-threaded
// reference IPCs are computed once per Runner, beside the mix runs that
// need them, and each mix is scored once its references are in.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/workpool"
)

// Params controls the experiment sweep.
type Params struct {
	Budget  uint64 // instructions per thread per run
	Seed    uint64
	Workers int // concurrent simulations; 0 = GOMAXPROCS

	// Telemetry enables internal/telemetry on every mix run of the
	// sweep: rows then carry stall-attribution and occupancy summaries
	// and progress events include them. Single-threaded reference runs
	// are never instrumented (only their IPC is consumed).
	Telemetry bool
}

func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SchemeSpec names one machine configuration of the evaluation.
type SchemeSpec struct {
	Label string
	Opt   tlrob.Options
}

// Baseline32 is the paper's Baseline_32 reference machine.
func Baseline32() SchemeSpec {
	return SchemeSpec{Label: "Baseline_32", Opt: tlrob.Options{Scheme: tlrob.Baseline, L1ROB: 32}}
}

// Baseline128 is the same-total-entries single-level configuration.
func Baseline128() SchemeSpec {
	return SchemeSpec{Label: "Baseline_128", Opt: tlrob.Options{Scheme: tlrob.Baseline, L1ROB: 128}}
}

// RROB is 2-Level R-ROB with the given DoD threshold.
func RROB(threshold int) SchemeSpec {
	return SchemeSpec{
		Label: fmt.Sprintf("2-Level R-ROB%d", threshold),
		Opt:   tlrob.Options{Scheme: tlrob.Reactive, DoDThreshold: threshold},
	}
}

// RelaxedRROB is 2-Level Relaxed R-ROB.
func RelaxedRROB(threshold int) SchemeSpec {
	return SchemeSpec{
		Label: fmt.Sprintf("2-Level Relaxed R-ROB%d", threshold),
		Opt:   tlrob.Options{Scheme: tlrob.RelaxedReactive, DoDThreshold: threshold},
	}
}

// CDRROB is 2-Level CDR-ROB with the paper's 32-cycle count delay.
func CDRROB(threshold int) SchemeSpec {
	return SchemeSpec{
		Label: fmt.Sprintf("2-Level CDR-ROB%d", threshold),
		Opt:   tlrob.Options{Scheme: tlrob.CountDelayed, DoDThreshold: threshold, CountDelay: 32},
	}
}

// PROB is 2-Level P-ROB with the given threshold.
func PROB(threshold int) SchemeSpec {
	return SchemeSpec{
		Label: fmt.Sprintf("2-Level P-ROB%d", threshold),
		Opt:   tlrob.Options{Scheme: tlrob.Predictive, DoDThreshold: threshold},
	}
}

// SchemeByName resolves a scheme label (as accepted by cmd/experiments,
// cmd/msim and the simd job API) to its SchemeSpec. threshold overrides
// the scheme's default DoD threshold when > 0; schemes without a
// threshold ignore it. Recognised names, case-insensitively:
// baseline/baseline32, baseline128, rrob/reactive/r-rob,
// relaxed-rrob/relaxed/relaxed-reactive, cdr-rrob/cdr/count-delayed,
// prob/predictive/p-rob, shared128/shared/shared-single.
func SchemeByName(name string, threshold int) (SchemeSpec, error) {
	th := func(def int) int {
		if threshold > 0 {
			return threshold
		}
		return def
	}
	switch strings.ToLower(name) {
	case "baseline", "baseline32":
		return Baseline32(), nil
	case "baseline128":
		return Baseline128(), nil
	case "rrob", "reactive", "r-rob":
		return RROB(th(16)), nil
	case "relaxed-rrob", "relaxed", "relaxed-reactive":
		return RelaxedRROB(th(15)), nil
	case "cdr-rrob", "cdr", "count-delayed":
		return CDRROB(th(15)), nil
	case "prob", "predictive", "p-rob":
		return PROB(th(5)), nil
	case "shared128", "shared", "shared-single":
		return SchemeSpec{
			Label: "Shared_128",
			Opt:   tlrob.Options{Scheme: tlrob.SharedSingle, L1ROB: 32},
		}, nil
	default:
		return SchemeSpec{}, fmt.Errorf("experiments: unknown scheme %q", name)
	}
}

// MixRow is one mix's outcome under one scheme.
type MixRow struct {
	Mix            string
	FairThroughput float64
	Throughput     float64
	DoDMean        float64
	Result         tlrob.MixResult
}

// SchemeSeries is one scheme evaluated over all mixes.
type SchemeSeries struct {
	Label   string
	Rows    []MixRow
	AvgFT   float64 // arithmetic mean over mixes, as the paper's "Average" bar
	AvgDoD  float64
	AvgIPC  float64
	Speedup float64 // vs the baseline series, filled by FTComparison
}

// Progress reports one completed unit of a sweep. Stage is "single" for
// a single-threaded reference run and "mix" for a scored multithreaded
// run; the two interleave, but a mix unit always follows the single
// units of its benchmarks. Index is the unit's slot (0-based) and Total
// the number of units of its stage in the call. FairThroughput is filled
// for mix units.
type Progress struct {
	Scheme         string
	Stage          string // "single" | "mix"
	Item           string // benchmark or mix name
	Index          int
	Total          int
	FairThroughput float64
	// Telemetry is the completed mix run's stall/occupancy digest; nil
	// unless Params.Telemetry is set (and always nil for "single" units).
	Telemetry *telemetry.Summary
}

// Runner executes experiment sweeps with shared single-IPC references.
type Runner struct {
	params  Params
	mu      sync.Mutex
	singles map[string]float64

	// OnProgress, if non-nil, is invoked from worker goroutines as each
	// unit of a sweep completes. It must be safe for concurrent use.
	OnProgress func(Progress)
}

// NewRunner builds a runner.
func NewRunner(p Params) *Runner {
	return &Runner{params: p, singles: make(map[string]float64)}
}

func (r *Runner) progress(p Progress) {
	if r.OnProgress != nil {
		r.OnProgress(p)
	}
}

// SingleIPCs returns (computing on first use) the single-threaded
// reference IPC of every benchmark used by the Table-2 mixes.
func (r *Runner) SingleIPCs(ctx context.Context) (map[string]float64, error) {
	if _, err := r.run(ctx, SchemeSpec{}, nil, workload.Mixes); err != nil {
		return nil, err
	}
	return r.copySingles(), nil
}

// missingSingles lists, in order of first use, the distinct benchmarks
// of mixes whose reference IPC is not memoized yet.
func (r *Runner) missingSingles(mixes []workload.Mix) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var todo []string
	for _, m := range mixes {
		for _, b := range m.Benchmarks {
			if _, ok := r.singles[b]; !ok && !slices.Contains(todo, b) {
				todo = append(todo, b)
			}
		}
	}
	return todo
}

// run evaluates spec over mixes and computes the missing references of
// refsOf's benchmarks, all as one task list on one worker pool: the
// first mix, then the references, then the remaining mixes. A mix run
// takes an empty reference map; its row is scored, and its "mix" event
// sent, by whichever of its own run and its missing references finishes
// last.
func (r *Runner) run(ctx context.Context, spec SchemeSpec, mixes, refsOf []workload.Mix) ([]MixRow, error) {
	todo := r.missingSingles(refsOf)
	// pending[i] counts mix i's unfinished runs; waiters[j] lists the
	// mixes that reference todo[j] holds back.
	pending := make([]atomic.Int32, len(mixes))
	waiters := make([][]int, len(todo))
	for i, m := range mixes {
		pending[i].Store(1)
		for j, b := range todo {
			if slices.Contains(m.Benchmarks[:], b) {
				pending[i].Add(1)
				waiters[j] = append(waiters[j], i)
			}
		}
	}
	rows := make([]MixRow, len(mixes))
	finish := func(i int) {
		if pending[i].Add(-1) != 0 {
			return
		}
		res := rows[i].Result
		r.mu.Lock()
		res.Score(r.singles)
		r.mu.Unlock()
		rows[i] = MixRow{
			Mix:            mixes[i].Name,
			FairThroughput: res.FairThroughput,
			Throughput:     res.Throughput,
			DoDMean:        res.DoDMean,
			Result:         res,
		}
		r.progress(Progress{
			Scheme: spec.Label, Stage: "mix", Item: mixes[i].Name,
			Index: i, Total: len(mixes), FairThroughput: res.FairThroughput,
			Telemetry: res.Telemetry,
		})
	}
	opt := spec.Opt
	opt.Budget = r.params.Budget
	opt.Seed = r.params.Seed
	opt.Telemetry = opt.Telemetry || r.params.Telemetry
	refOpt := tlrob.Options{Budget: r.params.Budget, Seed: r.params.Seed}
	first := min(len(mixes), 1)
	err := workpool.Run(ctx, r.params.workers(), len(mixes)+len(todo), func(t int) error {
		if j := t - first; j >= 0 && j < len(todo) {
			res, err := tlrob.RunSingle(todo[j], refOpt)
			if err != nil {
				return err
			}
			r.mu.Lock()
			r.singles[todo[j]] = res.IPC
			r.mu.Unlock()
			r.progress(Progress{Scheme: spec.Label, Stage: "single", Item: todo[j], Index: j, Total: len(todo)})
			for _, i := range waiters[j] {
				finish(i)
			}
			return nil
		}
		i := max(t-len(todo), 0)
		res, err := tlrob.RunMix(mixes[i], opt, map[string]float64{})
		if err != nil {
			return err
		}
		rows[i].Result = res
		finish(i)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (r *Runner) copySingles() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.singles))
	for k, v := range r.singles {
		out[k] = v
	}
	return out
}

// RunScheme evaluates one scheme over all Table-2 mixes.
func (r *Runner) RunScheme(ctx context.Context, spec SchemeSpec) (SchemeSeries, error) {
	return r.RunMixes(ctx, spec, workload.Mixes)
}

// RunMixes evaluates one scheme over the given mixes. The mix runs and
// the reference runs this Runner has not memoized yet share one worker
// pool (see run), so no mix waits for every reference before it starts.
// Cancelling ctx stops dispatching further runs (in-flight runs finish,
// the rest are abandoned) and returns the context error.
func (r *Runner) RunMixes(ctx context.Context, spec SchemeSpec, mixes []workload.Mix) (SchemeSeries, error) {
	if len(mixes) == 0 {
		return SchemeSeries{}, fmt.Errorf("experiments: no mixes given")
	}
	rows, err := r.run(ctx, spec, mixes, mixes)
	if err != nil {
		return SchemeSeries{}, err
	}
	series := SchemeSeries{Label: spec.Label, Rows: rows}
	for _, row := range series.Rows {
		series.AvgFT += row.FairThroughput
		series.AvgDoD += row.DoDMean
		series.AvgIPC += row.Throughput
	}
	n := float64(len(series.Rows))
	series.AvgFT /= n
	series.AvgDoD /= n
	series.AvgIPC /= n
	return series, nil
}

// FTComparison runs the baseline plus the given schemes and fills each
// scheme's Speedup versus the first series (the Figure-2/4/5/6 layout).
func (r *Runner) FTComparison(ctx context.Context, specs ...SchemeSpec) ([]SchemeSeries, error) {
	out := make([]SchemeSeries, len(specs))
	for i, spec := range specs {
		s, err := r.RunScheme(ctx, spec)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	for i := range out {
		out[i].Speedup = metrics.Speedup(out[0].AvgFT, out[i].AvgFT)
	}
	return out, nil
}

// DoDHistogram runs one scheme over all mixes and returns the per-mix
// dependent-count histograms (Figures 1, 3, 7).
func (r *Runner) DoDHistogram(ctx context.Context, spec SchemeSpec) ([]MixRow, error) {
	s, err := r.RunScheme(ctx, spec)
	if err != nil {
		return nil, err
	}
	return s.Rows, nil
}
