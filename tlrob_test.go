package tlrob

import (
	"math"
	"testing"

	"repro/internal/metrics"
)

const testBudget = 15_000

func TestRunSingleKnownBenchmark(t *testing.T) {
	res, err := RunSingle("art", Options{Budget: testBudget})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Cycles <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Benchmark != "art" {
		t.Fatalf("benchmark label %q", res.Benchmark)
	}
}

func TestRunSingleUnknownBenchmark(t *testing.T) {
	if _, err := RunSingle("nope", Options{Budget: testBudget}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunSingleUsesReferenceMachine(t *testing.T) {
	// The weighted-IPC denominator machine is fixed at Baseline_32 no
	// matter what scheme/sizes the options carry.
	a, err := RunSingle("parser", Options{Budget: testBudget})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSingle("parser", Options{
		Budget: testBudget, Scheme: Reactive, L1ROB: 128, L2ROB: 384, DoDThreshold: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC {
		t.Fatalf("reference IPC depends on options: %v vs %v", a.IPC, b.IPC)
	}
}

func TestRunMixBaseline(t *testing.T) {
	mix, err := MixByName("Mix 5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMix(mix, Options{Budget: testBudget}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 4 {
		t.Fatalf("%d threads", len(res.Threads))
	}
	if res.FairThroughput <= 0 {
		t.Fatalf("FT = %v", res.FairThroughput)
	}
	// FT equals the harmonic mean of the reported weighted IPCs.
	w := make([]float64, 4)
	for i, th := range res.Threads {
		w[i] = th.WeightedIPC
	}
	if got := metrics.FairThroughput(w); math.Abs(got-res.FairThroughput) > 1e-9 {
		t.Fatalf("FT %v does not match weighted IPCs %v", res.FairThroughput, got)
	}
}

func TestRunMixDeterministic(t *testing.T) {
	mix, _ := MixByName("Mix 1")
	opt := Options{Budget: testBudget, Seed: 3}
	a, err := RunMix(mix, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMix(mix, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.FairThroughput != b.FairThroughput {
		t.Fatal("mix runs are not deterministic")
	}
}

func TestSharedSingleIPCsMatchOnTheFly(t *testing.T) {
	mix, _ := MixByName("Mix 1")
	opt := Options{Budget: testBudget}
	singles, err := SingleIPCs(mix.Benchmarks[:], opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunMix(mix, opt, singles)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMix(mix, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.FairThroughput-b.FairThroughput) > 1e-12 {
		t.Fatal("precomputed singles change the result")
	}
}

func TestAllSchemesRun(t *testing.T) {
	mix, _ := MixByName("Mix 1")
	singles, err := SingleIPCs(mix.Benchmarks[:], Options{Budget: testBudget})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{Scheme: Baseline, L1ROB: 32},
		{Scheme: Baseline, L1ROB: 128},
		{Scheme: Reactive, DoDThreshold: 16},
		{Scheme: RelaxedReactive, DoDThreshold: 15},
		{Scheme: CountDelayed, DoDThreshold: 15},
		{Scheme: Predictive, DoDThreshold: 5},
	} {
		opt.Budget = testBudget
		res, err := RunMix(mix, opt, singles)
		if err != nil {
			t.Fatalf("%v: %v", opt.Scheme, err)
		}
		if res.FairThroughput <= 0 {
			t.Fatalf("%v: FT %v", opt.Scheme, res.FairThroughput)
		}
	}
}

func TestPredictiveExposesPredictorStats(t *testing.T) {
	mix, _ := MixByName("Mix 1")
	res, err := RunMix(mix, Options{Scheme: Predictive, DoDThreshold: 5, Budget: testBudget}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw.DoDPred == nil || res.Raw.DoDPred.Lookups == 0 {
		t.Fatal("predictive run has no predictor stats")
	}
}

func TestBenchmarksAndMixesExposed(t *testing.T) {
	if len(Benchmarks()) < 20 {
		t.Fatalf("%d benchmarks", len(Benchmarks()))
	}
	if len(Mixes()) != 11 {
		t.Fatalf("%d mixes", len(Mixes()))
	}
	if _, err := MixByName("Mix 42"); err == nil {
		t.Fatal("bogus mix accepted")
	}
}

func TestRunBenchmarksArbitraryCombination(t *testing.T) {
	res, err := RunBenchmarks("pair", []string{"parser", "crafty"}, Options{Budget: testBudget}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("%d threads", len(res.Threads))
	}
	if res.Threads[0].Benchmark != "parser" || res.Threads[1].Benchmark != "crafty" {
		t.Fatalf("thread labels: %+v", res.Threads)
	}
}

func TestRunBenchmarksValidation(t *testing.T) {
	if _, err := RunBenchmarks("x", nil, Options{}, nil); err == nil {
		t.Fatal("empty benchmark list accepted")
	}
	if _, err := RunBenchmarks("x", []string{"bogus"}, Options{Budget: testBudget}, nil); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestZeroOptionsRunICOUNT pins the fetch policy of the zero Options,
// which every figure, simd job and benchmark cell uses: ICOUNT, not the
// paper's DCRA. Making DCRA the default changes every result and every
// stored one with it, so it must be a deliberate model change.
func TestZeroOptionsRunICOUNT(t *testing.T) {
	if got := (Options{}).filled(4).machineConfig().PolicyKind; got != ICOUNT {
		t.Fatalf("zero Options run %v, want %v", got, ICOUNT)
	}
}
