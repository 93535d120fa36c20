package tlrob_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The examples run at small per-thread budgets so that all of them
// finish in about a second; `go run ./cmd/experiments` runs the paper's
// sweeps at full length.

// Quickstart: the paper's headline comparison on one workload. Table 2's
// Mix 1 (four memory-bound threads) runs on the Baseline_32 machine and
// on the 2-Level R-ROB16 machine; the weighted IPCs and the fair
// throughput show what the second level buys.
func ExampleRunMix() {
	mix, err := tlrob.MixByName("Mix 1")
	if err != nil {
		log.Fatal(err)
	}
	budget := uint64(20_000)
	// Single-threaded reference IPCs (weighted-IPC denominators), shared
	// by both configurations.
	singles, err := tlrob.SingleIPCs(mix.Benchmarks[:], tlrob.Options{Budget: budget})
	if err != nil {
		log.Fatal(err)
	}
	base, err := tlrob.RunMix(mix, tlrob.Options{Scheme: tlrob.Baseline, L1ROB: 32, Budget: budget}, singles)
	if err != nil {
		log.Fatal(err)
	}
	rrob, err := tlrob.RunMix(mix, tlrob.Options{Scheme: tlrob.Reactive, DoDThreshold: 16, Budget: budget}, singles)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s (%s)\n", mix.Name, mix.Classification)
	fmt.Printf("%-10s %14s %18s\n", "thread", "Baseline_32", "2-Level R-ROB16")
	for i := range base.Threads {
		fmt.Printf("%-10s %14.4f %18.4f\n", base.Threads[i].Benchmark,
			base.Threads[i].WeightedIPC, rrob.Threads[i].WeightedIPC)
	}
	fmt.Printf("fair throughput: %.4f -> %.4f (%+.1f%%)\n",
		base.FairThroughput, rrob.FairThroughput,
		100*(rrob.FairThroughput/base.FairThroughput-1))
	fmt.Printf("second-level grants: %d\n", rrob.Raw.ROBStats.Allocations)
	// Output:
	// Mix 1 (4 Low IPC)
	// thread        Baseline_32    2-Level R-ROB16
	// ammp               0.9135             1.0657
	// art                0.9045             1.0868
	// mgrid              1.0007             1.2511
	// apsi               0.9165             1.1977
	// fair throughput: 0.9322 -> 1.1453 (+22.9%)
	// second-level grants: 642
}

// DoD-threshold sweep: §5 reports that the reactive scheme works best
// with a high DoD threshold (16) and the predictive scheme with a low one
// (3–5). Reactive allocations happen late, when the shadow has drained
// and counts are accurate; predictive ones happen at detection, where a
// lax threshold admits too many high-dependence shadows.
func ExampleRunMix_dodSweep() {
	mix, err := tlrob.MixByName("Mix 1")
	if err != nil {
		log.Fatal(err)
	}
	budget := uint64(10_000)
	singles, err := tlrob.SingleIPCs(mix.Benchmarks[:], tlrob.Options{Budget: budget})
	if err != nil {
		log.Fatal(err)
	}
	base, err := tlrob.RunMix(mix, tlrob.Options{Budget: budget}, singles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, Baseline_32 FT = %.4f\n", mix.Name, base.FairThroughput)
	fmt.Printf("%-10s %16s %16s\n", "threshold", "R-ROB FT", "P-ROB FT")
	for _, th := range []int{1, 3, 5, 16, 31} {
		r, err := tlrob.RunMix(mix, tlrob.Options{Scheme: tlrob.Reactive, DoDThreshold: th, Budget: budget}, singles)
		if err != nil {
			log.Fatal(err)
		}
		p, err := tlrob.RunMix(mix, tlrob.Options{Scheme: tlrob.Predictive, DoDThreshold: th, Budget: budget}, singles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %9.4f (%+5.1f%%) %9.4f (%+5.1f%%)\n", th,
			r.FairThroughput, 100*(r.FairThroughput/base.FairThroughput-1),
			p.FairThroughput, 100*(p.FairThroughput/base.FairThroughput-1))
	}
	// Output:
	// Mix 1, Baseline_32 FT = 0.8877
	// threshold          R-ROB FT         P-ROB FT
	// 1             0.8877 ( +0.0%)    0.9628 ( +8.5%)
	// 3             0.9003 ( +1.4%)    1.0468 (+17.9%)
	// 5             0.9177 ( +3.4%)    1.0749 (+21.1%)
	// 16            1.0861 (+22.4%)    1.1125 (+25.3%)
	// 31            1.1028 (+24.2%)    1.1046 (+24.4%)
}

// Fetch policies: the long-latency-load policies of §2 (ICOUNT, STALL,
// FLUSH, MLP-aware and DCRA, the paper's baseline) on one mixed
// workload, then the two-level ROB on top of DCRA.
func ExampleRunMix_fetchPolicies() {
	mix, err := tlrob.MixByName("Mix 5")
	if err != nil {
		log.Fatal(err)
	}
	budget := uint64(20_000)
	singles, err := tlrob.SingleIPCs(mix.Benchmarks[:], tlrob.Options{Budget: budget})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%s)\n", mix.Name, mix.Classification)
	fmt.Printf("%-8s %12s %10s %10s %12s\n", "policy", "throughput", "FT", "flushes", "wrong-path")
	for _, pol := range []tlrob.PolicyKind{tlrob.ICOUNT, tlrob.STALL, tlrob.FLUSH, tlrob.MLP, tlrob.DCRA} {
		res, err := tlrob.RunMix(mix, tlrob.Options{Policy: pol, Budget: budget}, singles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8v %12.4f %10.4f %10d %12d\n", pol, res.Throughput, res.FairThroughput,
			res.Raw.FlushSquashes, res.Raw.WrongPathDispatched)
	}
	res, err := tlrob.RunMix(mix, tlrob.Options{Policy: tlrob.DCRA, Scheme: tlrob.Reactive, DoDThreshold: 16, Budget: budget}, singles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %12.4f %10.4f   (grants: %d, denied by DoD: %d)\n", "R-ROB16",
		res.Throughput, res.FairThroughput, res.Raw.ROBStats.Allocations, res.Raw.ROBStats.DeniedDoD)
	// Output:
	// Mix 5 (2 Low IPC + 2 Mid IPC)
	// policy     throughput         FT    flushes   wrong-path
	// icount         2.7793     0.8423          0         5757
	// stall          2.7750     0.7825          0         5908
	// flush          2.7684     0.7424         58         5980
	// mlp            2.7798     0.8428          0         5770
	// dcra           2.7084     0.8410          0         4806
	// R-ROB16        2.5964     0.8838   (grants: 33, denied by DoD: 49)
}

// Memory-bound acceleration, the paper's motivating scenario. art alone
// shows how much memory-level parallelism a larger window unlocks; in a
// four-thread mix, the 2-level ROB gives art that window without taking
// it from the co-runners, while Baseline_128's across-the-board windows
// clog the shared issue queue.
func ExampleRunBenchmarks_memoryBound() {
	budget := uint64(20_000)
	solo, err := tlrob.RunSingle("art", tlrob.Options{Budget: budget})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("art alone: window size vs IPC")
	for _, rob := range []int{32, 128, 416} {
		res, err := tlrob.RunBenchmarks("art", []string{"art"},
			tlrob.Options{Scheme: tlrob.Baseline, L1ROB: rob, Budget: budget},
			map[string]float64{"art": solo.IPC})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ROB %3d: IPC %.4f (%.2fx the 32-entry window)\n",
			rob, res.Threads[0].IPC, res.Threads[0].IPC/solo.IPC)
	}

	mix, err := tlrob.MixByName("Mix 2")
	if err != nil {
		log.Fatal(err)
	}
	singles, err := tlrob.SingleIPCs(mix.Benchmarks[:], tlrob.Options{Budget: budget})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s weighted IPCs (%s):\n", mix.Name, mix.Classification)
	fmt.Printf("%-16s", "config")
	for _, b := range mix.Benchmarks {
		fmt.Printf(" %9s", b)
	}
	fmt.Printf(" %8s\n", "FT")
	for _, c := range []struct {
		name string
		opt  tlrob.Options
	}{
		{"Baseline_32", tlrob.Options{Scheme: tlrob.Baseline, L1ROB: 32, Budget: budget}},
		{"Baseline_128", tlrob.Options{Scheme: tlrob.Baseline, L1ROB: 128, Budget: budget}},
		{"2-Level R-ROB16", tlrob.Options{Scheme: tlrob.Reactive, DoDThreshold: 16, Budget: budget}},
	} {
		res, err := tlrob.RunMix(mix, c.opt, singles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s", c.name)
		for _, th := range res.Threads {
			fmt.Printf(" %9.4f", th.WeightedIPC)
		}
		fmt.Printf(" %8.4f\n", res.FairThroughput)
	}
	// Output:
	// art alone: window size vs IPC
	//   ROB  32: IPC 0.0604 (1.00x the 32-entry window)
	//   ROB 128: IPC 0.1284 (2.13x the 32-entry window)
	//   ROB 416: IPC 0.1284 (2.13x the 32-entry window)
	// Mix 2 weighted IPCs (3 Low IPC + 1 Mid IPC):
	// config                 art     mgrid      apsi    parser       FT
	// Baseline_32         0.8233    1.0036    0.6893    0.9202   0.8424
	// Baseline_128        1.7164    1.8482    1.4507    0.1549   0.4837
	// 2-Level R-ROB16     1.1984    1.5851    0.7765    0.8732   1.0261
}

// recordTrace writes n instructions of bench's generator, seeded with
// seed, to dir in the internal/trace format and returns the file's path.
func recordTrace(dir, bench string, seed uint64, n int) (string, error) {
	prof, ok := workload.ProfileFor(bench)
	if !ok {
		return "", fmt.Errorf("unknown benchmark %q", bench)
	}
	gen, err := workload.NewGenerator(prof, seed)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, bench+".trace")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return "", err
	}
	var ti isa.TraceInst
	for i := 0; i < n; i++ {
		gen.Next(&ti)
		if err := w.Write(&ti); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// Trace replay: the simulator runs any instruction stream in the binary
// format of internal/trace, the integration point for real program
// traces. Two generator streams are recorded and replayed as a 2-thread
// SMT workload under the baseline and the two-level ROB.
func ExampleRunTraceFiles() {
	dir, err := os.MkdirTemp("", "tlrob-traces")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	budget := uint64(10_000)
	// Record more instructions than the budget so the replay never wraps.
	a, err := recordTrace(dir, "art", 1, 2*int(budget))
	if err != nil {
		log.Fatal(err)
	}
	b, err := recordTrace(dir, "parser", 2, 2*int(budget))
	if err != nil {
		log.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opt  tlrob.Options
	}{
		{"Baseline_32", tlrob.Options{Scheme: tlrob.Baseline, Budget: budget}},
		{"2-Level R-ROB16", tlrob.Options{Scheme: tlrob.Reactive, DoDThreshold: 16, Budget: budget}},
	} {
		res, err := tlrob.RunTraceFiles([]string{a, b}, cfg.opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s cycles=%-6d", cfg.name, res.Cycles)
		for _, th := range res.Threads {
			fmt.Printf("  %s IPC=%.4f", th.Benchmark, th.IPC)
		}
		fmt.Println()
	}
	// Output:
	// Baseline_32      cycles=6472    art.trace IPC=0.0450  parser.trace IPC=1.5453
	// 2-Level R-ROB16  cycles=6682    art.trace IPC=0.0590  parser.trace IPC=1.4967
}

// TestRunTraceFiles replays recorded generator streams and requires the
// run to match the generator-driven run of the same benchmarks and seeds
// exactly: a trace carries everything the model reads from a workload.
func TestRunTraceFiles(t *testing.T) {
	budget := uint64(10_000)
	opts := []tlrob.Options{
		{Scheme: tlrob.Baseline, Budget: budget},
		{Scheme: tlrob.Reactive, DoDThreshold: 16, Budget: budget, Seed: 3},
	}
	for _, opt := range opts {
		// RunBenchmarks seeds thread i's generator with Seed*16+i+1.
		dir := t.TempDir()
		var paths []string
		for i, bench := range []string{"art", "parser"} {
			p, err := recordTrace(dir, bench, opt.Seed*16+uint64(i)+1, 2*int(budget))
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		replay, err := tlrob.RunTraceFiles(paths, opt)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := tlrob.RunBenchmarks("pair", []string{"art", "parser"}, opt, map[string]float64{"art": 1, "parser": 1})
		if err != nil {
			t.Fatal(err)
		}
		if replay.Cycles != gen.Cycles {
			t.Errorf("%v: replay ran %d cycles, generator %d", opt.Scheme, replay.Cycles, gen.Cycles)
		}
		for i := range gen.Threads {
			if r, g := replay.Threads[i], gen.Threads[i]; r.Committed != g.Committed || r.IPC != g.IPC || r.IPC <= 0 {
				t.Errorf("%v: thread %d: replay committed %d at IPC %v, generator %d at %v",
					opt.Scheme, i, r.Committed, r.IPC, g.Committed, g.IPC)
			}
		}
		if replay.Raw.ROBStats != gen.Raw.ROBStats {
			t.Errorf("%v: replay ROB stats %+v, generator %+v", opt.Scheme, replay.Raw.ROBStats, gen.Raw.ROBStats)
		}
	}

	if _, err := tlrob.RunTraceFiles([]string{filepath.Join(t.TempDir(), "missing.trace")}, tlrob.Options{Budget: budget}); err == nil {
		t.Fatal("missing trace file accepted")
	}
	if _, err := tlrob.RunTraceFiles(nil, tlrob.Options{}); err == nil {
		t.Fatal("empty trace list accepted")
	}
}
