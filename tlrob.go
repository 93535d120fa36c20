// Package tlrob is the public API of the two-level reorder buffer
// reproduction (Loew & Ponomarev, "Two-Level Reorder Buffers: Accelerating
// Memory-Bound Applications on SMT Architectures", ICPP 2008).
//
// It wraps the cycle-level SMT simulator in internal/pipeline and the
// synthetic SPEC-2000-like workloads in internal/workload behind a small
// surface: build an Options value, then call RunMix (a Table-2 four-thread
// workload), RunBenchmarks (any benchmark combination) or RunSingle (one
// thread alone, the denominator for weighted IPC). Results carry
// per-thread IPCs, the paper's Fair Throughput metric, and the
// Degree-of-Dependence histogram behind Figures 1, 3 and 7.
//
// A minimal comparison of the paper's headline configurations:
//
//	base := tlrob.Options{Scheme: tlrob.Baseline, L1ROB: 32}
//	rrob := tlrob.Options{Scheme: tlrob.Reactive, L1ROB: 32, L2ROB: 384, DoDThreshold: 16}
//	mix, _ := tlrob.MixByName("Mix 1")
//	a, _ := tlrob.RunMix(mix, base)
//	b, _ := tlrob.RunMix(mix, rrob)
//	fmt.Printf("FT %.3f -> %.3f\n", a.FairThroughput, b.FairThroughput)
package tlrob

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/rob"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/workpool"
)

// Scheme selects the second-level ROB allocation scheme.
type Scheme = rob.Scheme

// Re-exported allocation schemes (§4, §5).
const (
	Baseline        = rob.Baseline
	Reactive        = rob.Reactive
	RelaxedReactive = rob.RelaxedReactive
	CountDelayed    = rob.CountDelayedReactive
	Predictive      = rob.Predictive
	SharedSingle    = rob.SharedSingle
)

// PolicyKind selects the fetch/resource-allocation policy.
type PolicyKind = policy.Kind

// Re-exported policies.
const (
	ICOUNT = policy.ICOUNT
	DCRA   = policy.DCRA
	STALL  = policy.STALL
	FLUSH  = policy.FLUSH
	MLP    = policy.MLP
)

// Options selects a machine configuration. Zero fields take their
// defaults, so the zero value is Baseline_32 under the ICOUNT fetch
// policy, Policy's zero value. The paper runs every configuration under
// DCRA, which needs Policy: DCRA; no figure, simd job or benchmark cell
// sets it, so they all run ICOUNT.
type Options struct {
	Scheme       Scheme
	DoDThreshold int // reactive: 16; relaxed/CDR: 15; predictive: 3 or 5
	L1ROB        int // per-thread first level (default 32)
	L2ROB        int // shared second level (default 384 for 2-level schemes)
	Policy       PolicyKind
	Seed         uint64
	Budget       uint64 // per-thread instruction budget (default 200k)

	// CountDelay overrides the CDR snapshot delay (default 32 cycles).
	CountDelay int
	// RecheckInterval overrides the reactive recheck period (default 10).
	RecheckInterval int
	// PredEntries overrides the DoD predictor table size (default 4096).
	PredEntries int
	// PredPathHash enables gshare-style path-hashed DoD prediction.
	PredPathHash bool
	// TrackExactDoD additionally computes the exact dataflow DoD per miss
	// to quantify the approximation error.
	TrackExactDoD bool
	// EarlyRegRelease enables the early register deallocation of [24],
	// the synergy the paper names in its introduction.
	EarlyRegRelease bool
	// MSHRs overrides the outstanding-miss limit (default 64).
	MSHRs int
	// Threads overrides the thread count for RunBenchmarks (RunMix always
	// uses 4; RunSingle always 1).
	Threads int

	// NaiveTicker forces the cycle-by-cycle reference engine instead of
	// the skip-ahead scheduler. Results are bit-identical either way
	// (the differential harness enforces it); the naive engine exists
	// as the reference for that harness and for engine-overhead
	// benchmarking.
	NaiveTicker bool

	// Telemetry enables the internal/telemetry instrumentation layer:
	// cycle-level stall attribution, sampled occupancy traces and
	// second-level grant intervals. Results then carry a Summary (and
	// the Raw result the full Collector, for Chrome-trace export).
	// Disabled by default: the per-cycle overhead is then one nil check.
	Telemetry bool
	// TelemetrySampleInterval overrides the occupancy sample period in
	// cycles (default 64; only meaningful with Telemetry set).
	TelemetrySampleInterval int
}

func (o Options) filled(threads int) Options {
	if o.L1ROB == 0 {
		o.L1ROB = 32
	}
	twoLevel := o.Scheme != Baseline && o.Scheme != SharedSingle
	if twoLevel && o.L2ROB == 0 {
		o.L2ROB = 384
	}
	if twoLevel && o.DoDThreshold == 0 {
		o.DoDThreshold = 16
	}
	if o.Budget == 0 {
		o.Budget = 200_000
	}
	if o.CountDelay == 0 {
		o.CountDelay = 32
	}
	if o.RecheckInterval == 0 {
		o.RecheckInterval = 10
	}
	if o.PredEntries == 0 {
		o.PredEntries = 4096
	}
	o.Threads = threads
	return o
}

// machineConfig assembles the pipeline configuration for the options.
func (o Options) machineConfig() pipeline.Config {
	robCfg := rob.Config{
		Threads:         o.Threads,
		L1Size:          o.L1ROB,
		L2Size:          o.L2ROB,
		Scheme:          o.Scheme,
		DoDThreshold:    o.DoDThreshold,
		RecheckInterval: o.RecheckInterval,
		CountDelay:      o.CountDelay,
		PredEntries:     o.PredEntries,
		PredPathHash:    o.PredPathHash,
		PredHistBits:    8,
	}
	cfg := pipeline.DefaultConfig(o.Threads, robCfg)
	cfg.PolicyKind = o.Policy
	cfg.TrackExactDoD = o.TrackExactDoD
	cfg.EarlyRegRelease = o.EarlyRegRelease
	cfg.NaiveTicker = o.NaiveTicker
	if o.MSHRs != 0 {
		cfg.Hier.MSHRs = o.MSHRs
	}
	if o.Telemetry {
		cfg.Telemetry = &telemetry.Config{
			SampleInterval: int64(o.TelemetrySampleInterval),
		}
	}
	return cfg
}

// RawResult exposes the full per-substrate statistics of a run.
type RawResult = pipeline.Result

// ThreadResult reports one thread of a multithreaded run.
type ThreadResult struct {
	Benchmark   string
	Committed   uint64
	IPC         float64
	WeightedIPC float64 // IPC divided by the single-threaded IPC
}

// MixResult reports a multithreaded run.
type MixResult struct {
	Mix            string
	Scheme         string
	Cycles         int64
	Threads        []ThreadResult
	Throughput     float64 // summed IPC
	FairThroughput float64 // harmonic mean of weighted IPCs (FT, [7])
	DoDMean        float64
	// Telemetry is the run's stall-attribution and occupancy digest;
	// nil unless Options.Telemetry was set. The full collector (for
	// Chrome-trace export) is at Raw.Telemetry.
	Telemetry *telemetry.Summary
	Raw       pipeline.Result
}

// SingleResult reports a single-threaded run.
type SingleResult struct {
	Benchmark string
	Cycles    int64
	IPC       float64
	Raw       pipeline.Result
}

// MixByName returns one of the paper's Table-2 mixes.
func MixByName(name string) (workload.Mix, error) {
	m, ok := workload.MixByName(name)
	if !ok {
		return workload.Mix{}, fmt.Errorf("tlrob: unknown mix %q", name)
	}
	return m, nil
}

// Mixes returns all Table-2 mixes.
func Mixes() []workload.Mix { return workload.Mixes }

// Benchmarks returns the names of all synthetic SPEC-2000 profiles.
func Benchmarks() []string { return workload.Names() }

// RunSingle simulates one benchmark alone on the reference machine — the
// Baseline configuration with a 32-entry single-level ROB — and returns
// its IPC, the weighted-IPC denominator. The reference machine is fixed
// regardless of opt's scheme and ROB sizes so that fair-throughput values
// are comparable across configurations; only the budget, seed and policy
// carry over.
func RunSingle(bench string, opt Options) (SingleResult, error) {
	prof, ok := workload.ProfileFor(bench)
	if !ok {
		return SingleResult{}, fmt.Errorf("tlrob: unknown benchmark %q", bench)
	}
	opt.Scheme = Baseline
	opt.L1ROB = 32
	opt.L2ROB = 0
	opt.DoDThreshold = 0
	o := opt.filled(1)
	gen, err := workload.NewGenerator(prof, o.Seed*16+1)
	if err != nil {
		return SingleResult{}, err
	}
	cpu, err := pipeline.New(o.machineConfig(), []pipeline.TraceSource{gen})
	if err != nil {
		return SingleResult{}, err
	}
	res, err := cpu.Run(o.Budget)
	cpu.Release()
	if err != nil {
		return SingleResult{}, err
	}
	return SingleResult{Benchmark: bench, Cycles: res.Cycles, IPC: res.IPC[0], Raw: res}, nil
}

// SingleIPCs runs each distinct named benchmark alone (see RunSingle)
// and returns its IPC, caching nothing — callers (the experiment
// harness) memoize as needed. Every name is checked before anything is
// simulated; unknown names fail the call together in one error. The
// reference runs are independent and go to runtime.GOMAXPROCS(0)
// workers; each fills only its own slot, so the map does not depend on
// the worker count. Telemetry is off for them, since only the IPC is
// kept.
func SingleIPCs(benchmarks []string, opt Options) (map[string]float64, error) {
	out := make(map[string]float64, len(benchmarks))
	var distinct, unknown []string
	for _, b := range benchmarks {
		if _, dup := out[b]; dup {
			continue
		}
		out[b] = 0
		if _, ok := workload.ProfileFor(b); !ok {
			unknown = append(unknown, fmt.Sprintf("%q", b))
		}
		distinct = append(distinct, b)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("tlrob: unknown benchmark(s) %s", strings.Join(unknown, ", "))
	}
	opt.Telemetry = false
	opt.TelemetrySampleInterval = 0
	ipcs := make([]float64, len(distinct))
	err := workpool.Run(context.Background(), runtime.GOMAXPROCS(0), len(distinct), func(i int) error {
		r, err := RunSingle(distinct[i], opt)
		ipcs[i] = r.IPC
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range distinct {
		out[b] = ipcs[i]
	}
	return out, nil
}

// RunBenchmarks simulates an arbitrary multithreaded combination.
// singleIPC supplies weighted-IPC denominators; pass nil to have them
// computed on the fly by SingleIPCs (one extra run per distinct
// benchmark, on runtime.GOMAXPROCS(0) workers; the result does not
// depend on the worker count).
func RunBenchmarks(name string, benches []string, opt Options, singleIPC map[string]float64) (MixResult, error) {
	if len(benches) == 0 {
		return MixResult{}, fmt.Errorf("tlrob: no benchmarks given")
	}
	o := opt.filled(len(benches))
	if singleIPC == nil {
		var err error
		if singleIPC, err = SingleIPCs(benches, opt); err != nil {
			return MixResult{}, err
		}
	}
	sources := make([]pipeline.TraceSource, len(benches))
	for i, b := range benches {
		prof, ok := workload.ProfileFor(b)
		if !ok {
			return MixResult{}, fmt.Errorf("tlrob: unknown benchmark %q", b)
		}
		gen, err := workload.NewGenerator(prof, o.Seed*16+uint64(i)+1)
		if err != nil {
			return MixResult{}, err
		}
		sources[i] = gen
	}
	mr, err := runSources(name, benches, sources, o)
	if err != nil {
		return MixResult{}, err
	}
	mr.Score(singleIPC)
	return mr, nil
}

// runSources simulates one source per thread, labelled by labels, on
// the machine o describes, and reports the run unscored.
func runSources(name string, labels []string, sources []pipeline.TraceSource, o Options) (MixResult, error) {
	cpu, err := pipeline.New(o.machineConfig(), sources)
	if err != nil {
		return MixResult{}, err
	}
	res, err := cpu.Run(o.Budget)
	cpu.Release()
	if err != nil {
		return MixResult{}, err
	}
	mr := MixResult{
		Mix:     name,
		Scheme:  o.Scheme.String(),
		Cycles:  res.Cycles,
		DoDMean: res.DoDHist.Mean(),
		Raw:     res,
	}
	if res.Telemetry != nil {
		mr.Telemetry = res.Telemetry.Summary()
	}
	for i, label := range labels {
		mr.Throughput += res.IPC[i]
		mr.Threads = append(mr.Threads, ThreadResult{
			Benchmark: label,
			Committed: res.Committed[i],
			IPC:       res.IPC[i],
		})
	}
	return mr, nil
}

// Score sets each thread's WeightedIPC and the run's FairThroughput
// from the single-threaded reference IPCs of its benchmarks (a missing
// reference weighs as zero). RunBenchmarks calls it once the run is
// done; a caller that passed an empty map there can score the result
// again once its references are known.
func (mr *MixResult) Score(singleIPC map[string]float64) {
	weighted := make([]float64, len(mr.Threads))
	for i := range mr.Threads {
		t := &mr.Threads[i]
		t.WeightedIPC = metrics.WeightedIPC(t.IPC, singleIPC[t.Benchmark])
		weighted[i] = t.WeightedIPC
	}
	mr.FairThroughput = metrics.FairThroughput(weighted)
}

// RunTraceFiles simulates recorded binary traces (see internal/trace),
// one file per hardware thread. Weighted IPCs are not computed (no
// single-thread reference is implied by a raw trace); FairThroughput is
// therefore zero and callers should use the per-thread IPCs directly.
func RunTraceFiles(paths []string, opt Options) (MixResult, error) {
	if len(paths) == 0 {
		return MixResult{}, fmt.Errorf("tlrob: no trace files given")
	}
	o := opt.filled(len(paths))
	sources := make([]pipeline.TraceSource, len(paths))
	labels := make([]string, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return MixResult{}, err
		}
		rd, err := trace.NewReader(f)
		f.Close()
		if err != nil {
			return MixResult{}, fmt.Errorf("tlrob: %s: %w", p, err)
		}
		sources[i] = rd
		labels[i] = filepath.Base(p)
	}
	return runSources("traces", labels, sources, o)
}

// RunMix simulates one of the paper's Table-2 mixes.
func RunMix(mix workload.Mix, opt Options, singleIPC map[string]float64) (MixResult, error) {
	return RunBenchmarks(mix.Name, mix.Benchmarks[:], opt, singleIPC)
}
