// Command msim runs one simulation of the two-level-ROB SMT machine and
// prints per-thread IPCs, the fair-throughput metric and key substrate
// statistics.
//
// Examples:
//
//	msim -mix "Mix 1" -scheme reactive -threshold 16
//	msim -benches art,mgrid,apsi,parser -scheme baseline -l1rob 128
//	msim -single art
//	msim -traces a.trace,b.trace -scheme reactive    # recorded traces
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/experiments"
	"repro/internal/policy"
)

func main() {
	var (
		mixName   = flag.String("mix", "", "Table-2 mix to run (e.g. \"Mix 1\")")
		benches   = flag.String("benches", "", "comma-separated benchmark list (alternative to -mix)")
		single    = flag.String("single", "", "run one benchmark single-threaded")
		traces    = flag.String("traces", "", "comma-separated binary trace files, one per thread")
		scheme    = flag.String("scheme", "baseline", "ROB scheme, as cmd/experiments and simd name it: baseline | baseline128 | rrob (reactive, r-rob) | relaxed-rrob (relaxed, relaxed-reactive) | cdr-rrob (cdr, count-delayed) | prob (predictive, p-rob) | shared (shared-single)")
		threshold = flag.Int("threshold", 0, "DoD threshold; 0 = the scheme's default (rrob 16, relaxed/cdr 15, prob 5)")
		l1rob     = flag.Int("l1rob", 0, "per-thread first-level ROB entries; 0 = the scheme's (32; 128 for baseline128)")
		l2rob     = flag.Int("l2rob", 0, "shared second-level ROB entries of a two-level scheme; 0 = 384")
		polName   = flag.String("policy", "dcra", "fetch policy: icount | dcra | stall | flush | mlp")
		budget    = flag.Uint64("budget", 200_000, "per-thread instruction budget")
		seed      = flag.Uint64("seed", 1, "workload seed")
		early     = flag.Bool("early", false, "enable early register deallocation [24]")
		asJSON    = flag.Bool("json", false, "emit the result as JSON on stdout")
		verbose   = flag.Bool("v", false, "print substrate statistics")
	)
	flag.Parse()

	spec, err := experiments.SchemeByName(*scheme, *threshold)
	fatal(err)
	pol, err := policy.ParseKind(*polName)
	fatal(err)

	opt := spec.Opt
	opt.EarlyRegRelease = *early
	opt.Policy = pol
	opt.Budget = *budget
	opt.Seed = *seed
	if *l1rob > 0 {
		opt.L1ROB = *l1rob
	}
	if *l2rob > 0 && opt.Scheme != tlrob.Baseline && opt.Scheme != tlrob.SharedSingle {
		opt.L2ROB = *l2rob
	}

	switch {
	case *traces != "":
		files := strings.Split(*traces, ",")
		r, err := tlrob.RunTraceFiles(files, opt)
		fatal(err)
		fmt.Printf("traces  scheme=%s policy=%s cycles=%d\n", r.Scheme, *polName, r.Cycles)
		for _, t := range r.Threads {
			fmt.Printf("  %-16s committed=%-9d IPC=%.4f\n", t.Benchmark, t.Committed, t.IPC)
		}
		fmt.Printf("  throughput=%.4f  DoD-mean=%.2f\n", r.Throughput, r.DoDMean)
		if *verbose {
			printRaw(rawPrinter{r.Raw.Cycles, r.Raw})
		}
	case *single != "":
		r, err := tlrob.RunSingle(*single, opt)
		fatal(err)
		if *asJSON {
			emitJSON(r)
			return
		}
		fmt.Printf("%-10s cycles=%-10d IPC=%.4f\n", r.Benchmark, r.Cycles, r.IPC)
		if *verbose {
			printRaw(rawPrinter{r.Raw.Cycles, r.Raw})
		}
	case *mixName != "" || *benches != "":
		var names []string
		var label string
		if *mixName != "" {
			m, err := tlrob.MixByName(*mixName)
			fatal(err)
			names = m.Benchmarks[:]
			label = m.Name
		} else {
			names = strings.Split(*benches, ",")
			label = *benches
		}
		r, err := tlrob.RunBenchmarks(label, names, opt, nil)
		fatal(err)
		if *asJSON {
			emitJSON(r)
			return
		}
		fmt.Printf("%s  scheme=%s policy=%s cycles=%d\n", r.Mix, r.Scheme, *polName, r.Cycles)
		for _, t := range r.Threads {
			fmt.Printf("  %-10s committed=%-9d IPC=%.4f  weighted=%.4f\n",
				t.Benchmark, t.Committed, t.IPC, t.WeightedIPC)
		}
		fmt.Printf("  throughput=%.4f  fair-throughput=%.4f  DoD-mean=%.2f\n",
			r.Throughput, r.FairThroughput, r.DoDMean)
		if *verbose {
			printRaw(rawPrinter{r.Raw.Cycles, r.Raw})
		}
	default:
		fmt.Fprintln(os.Stderr, "msim: one of -mix, -benches or -single is required")
		flag.Usage()
		os.Exit(2)
	}
}

type rawPrinter struct {
	cycles int64
	r      tlrob.RawResult
}

func printRaw(p rawPrinter) {
	r := p.r
	for t := range r.Loads {
		fmt.Printf("  t%d loads=%-8d l1m=%-8d l2m=%-8d avgLat=%.1f\n",
			t, r.Loads[t], r.LoadL1Miss[t], r.LoadL2Miss[t],
			float64(r.LoadLatencySum[t])/float64(max(r.Loads[t], 1)))
	}
	fmt.Printf("  branches: lookups=%d mispred=%d (%.2f%%)\n",
		r.Branch.Lookups, r.Branch.Mispreds, pct(r.Branch.Mispreds, r.Branch.Lookups))
	fmt.Printf("  L1D: acc=%d miss=%d (%.2f%%)  L2: acc=%d miss=%d (%.2f%%)\n",
		r.L1D.Accesses, r.L1D.Misses, pct(r.L1D.Misses, r.L1D.Accesses),
		r.L2.Accesses, r.L2.Misses, pct(r.L2.Misses, r.L2.Accesses))
	fmt.Printf("  L2-miss loads=%d mshr-merges=%d mshr-stalls=%d\n",
		r.HierStats.L2MissLoads, r.HierStats.MSHRMerges, r.HierStats.MSHRStalls)
	if p.cycles > 0 {
		fmt.Printf("  IQ mean occupancy=%.1f/64\n", float64(r.IQStats.OccupancySum)/float64(r.IQStats.Cycles))
	}
	fmt.Printf("  ROB mgr: misses=%d alloc=%d release=%d deniedDoD=%d deniedBusy=%d ownedCycles=%d\n",
		r.ROBStats.MissesObserved, r.ROBStats.Allocations, r.ROBStats.Releases,
		r.ROBStats.DeniedDoD, r.ROBStats.DeniedBusy, r.ROBStats.OwnedCycles)
	fmt.Printf("  squashed=%d wrong-path=%d flushes=%d lsq-fwd=%d early-released=%d\n",
		r.SquashedUops, r.WrongPathDispatched, r.FlushSquashes, r.LSQStats.Forwarded,
		r.EarlyRegReleases)
	if r.DoDPred != nil {
		fmt.Printf("  DoD predictor: lookups=%d untrained=%d correct=%d wrong=%d\n",
			r.DoDPred.Lookups, r.DoDPred.Untrained, r.DoDPred.Correct, r.DoDPred.Wrong)
	}
	if r.DoDHist.Total() > 0 {
		fmt.Printf("  DoD@service: n=%d mean=%.2f hist[0..31]=", r.DoDHist.Total(), r.DoDHist.Mean())
		for i := 0; i < 32 && i < len(r.DoDHist.Counts); i++ {
			fmt.Printf("%d ", r.DoDHist.Counts[i])
		}
		fmt.Println()
	}
}

// emitJSON writes any result as indented JSON for downstream tooling.
func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "msim:", err)
		os.Exit(1)
	}
}
