package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/rob"
	"repro/internal/telemetry"
)

// diffBudget keeps the untagged differential matrix fast enough to gate
// every `go test ./...` run; the slowcheck harness covers long runs.
const diffBudget = 1500

// runBothEngines runs the same configuration twice — once with the
// naive cycle-by-cycle ticker, once with skip-ahead — on independently
// regenerated (hence identical) workload streams, and returns both
// Results.
func runBothEngines(t *testing.T, cfg Config, mix string, seed uint64, budget uint64) (naive, fast Result) {
	t.Helper()
	naiveCfg := cfg
	naiveCfg.NaiveTicker = true
	fastCfg := cfg
	fastCfg.NaiveTicker = false
	naive = run(t, naiveCfg, mixSources(t, mix, seed), budget)
	fast = run(t, fastCfg, mixSources(t, mix, seed), budget)
	return naive, fast
}

// requireIdentical asserts the two engines produced bit-identical
// Results, diffing top-level sections first so a failure names the
// subsystem that diverged.
func requireIdentical(t *testing.T, naive, fast Result) {
	t.Helper()
	if reflect.DeepEqual(naive, fast) {
		return
	}
	if naive.Cycles != fast.Cycles {
		t.Errorf("cycles diverged: naive %d, skip-ahead %d", naive.Cycles, fast.Cycles)
	}
	for _, sec := range []struct {
		name string
		n, f interface{}
	}{
		{"Stats", naive.Stats, fast.Stats},
		{"IPC", naive.IPC, fast.IPC},
		{"DoDHist", naive.DoDHist, fast.DoDHist},
		{"ROBStats", naive.ROBStats, fast.ROBStats},
		{"IQStats", naive.IQStats, fast.IQStats},
		{"LSQStats", naive.LSQStats, fast.LSQStats},
		{"L1D", naive.L1D, fast.L1D},
		{"L1I", naive.L1I, fast.L1I},
		{"L2", naive.L2, fast.L2},
		{"HierStats", naive.HierStats, fast.HierStats},
		{"Branch", naive.Branch, fast.Branch},
		{"LoadHit", naive.LoadHit, fast.LoadHit},
		{"DoDPred", naive.DoDPred, fast.DoDPred},
		{"Telemetry", naive.Telemetry, fast.Telemetry},
	} {
		if !reflect.DeepEqual(sec.n, sec.f) {
			t.Errorf("%s diverged:\n naive: %+v\n skip:  %+v", sec.name, sec.n, sec.f)
		}
	}
	if !t.Failed() {
		t.Error("results diverged in an uncategorised field")
	}
}

// TestSkipAheadMatchesNaive is the in-tree half of the differential
// harness: every evaluated scheme, on a memory-bound (skip-heavy) and a
// compute-bound (skip-poor) mix, across several seeds, must produce a
// Result bit-identical to the naive ticker's — telemetry included.
func TestSkipAheadMatchesNaive(t *testing.T) {
	schemes := []struct {
		name string
		cfg  rob.Config
	}{
		{"Baseline_32", rob.Config{Threads: 4, L1Size: 32, Scheme: rob.Baseline}},
		{"RROB_16", rob.DefaultConfig(4, rob.Reactive, 16)},
		{"RelaxedRROB_15", rob.DefaultConfig(4, rob.RelaxedReactive, 15)},
		{"CDRROB_15", rob.DefaultConfig(4, rob.CountDelayedReactive, 15)},
		{"PROB_5", rob.DefaultConfig(4, rob.Predictive, 5)},
		{"Shared_128", rob.Config{Threads: 4, L1Size: 32, Scheme: rob.SharedSingle}},
	}
	mixes := []string{"Mix 1", "Mix 10"} // 4×low-IPC, 4×high-IPC
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sc := range schemes {
		for _, mix := range mixes {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", sc.name, mix, seed), func(t *testing.T) {
					cfg := DefaultConfig(4, sc.cfg)
					cfg.Telemetry = &telemetry.Config{}
					naive, fast := runBothEngines(t, cfg, mix, seed, diffBudget)
					requireIdentical(t, naive, fast)
				})
			}
		}
	}
}

// TestSkipAheadMatchesNaiveRecheckIntervals covers the closed-form
// roll-forward of blocked reactive rechecks (rob.FastForward) off the
// paper's 10-cycle period: an interval of 1 makes every skipped cycle a
// recheck, and 7 puts the rechecks out of phase with the memory latency.
func TestSkipAheadMatchesNaiveRecheckIntervals(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, scheme := range []rob.Scheme{rob.Reactive, rob.RelaxedReactive} {
		for _, iv := range []int{1, 7} {
			for _, mix := range []string{"Mix 1", "Mix 3"} {
				for _, seed := range seeds {
					for _, tel := range []bool{false, true} {
						t.Run(fmt.Sprintf("%v/iv%d/%s/seed%d/tel=%v", scheme, iv, mix, seed, tel), func(t *testing.T) {
							rc := rob.DefaultConfig(4, scheme, 16)
							rc.RecheckInterval = iv
							cfg := DefaultConfig(4, rc)
							if tel {
								cfg.Telemetry = &telemetry.Config{}
							}
							naive, fast := runBothEngines(t, cfg, mix, seed, 3000)
							requireIdentical(t, naive, fast)
						})
					}
				}
			}
		}
	}
}

// TestSkipAheadMatchesNaivePolicies covers the fetch policies whose
// admission decisions gate the fetch wake-up logic — FLUSH in
// particular exercises flushWait spans and squash-refill attribution.
func TestSkipAheadMatchesNaivePolicies(t *testing.T) {
	for _, kind := range []policy.Kind{policy.ICOUNT, policy.STALL, policy.FLUSH, policy.MLP} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
			cfg.PolicyKind = kind
			cfg.Telemetry = &telemetry.Config{}
			naive, fast := runBothEngines(t, cfg, "Mix 1", 1, diffBudget)
			requireIdentical(t, naive, fast)
		})
	}
}

// TestSkipAheadMatchesNaiveNoTelemetry checks the tel==nil fast path of
// skipTo, which must still advance the structural state.
func TestSkipAheadMatchesNaiveNoTelemetry(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	naive, fast := runBothEngines(t, cfg, "Mix 1", 1, diffBudget)
	requireIdentical(t, naive, fast)
}

// TestWatchdogCycles pins the fallback deadlock-watchdog derivation,
// including the saturation fix: budgets above MaxInt64/2000 used to
// overflow int64 and produce a negative limit that fired on cycle 0.
func TestWatchdogCycles(t *testing.T) {
	cases := []struct {
		budget uint64
		cfgMax int64
		want   int64
	}{
		{budget: 1, cfgMax: 0, want: 1_000_000},        // floor
		{budget: 50_000, cfgMax: 0, want: 100_000_000}, // budget * 2000
		{budget: 50_000, cfgMax: 777, want: 777},       // explicit override wins
		{budget: math.MaxUint64, cfgMax: 0, want: math.MaxInt64},
		{budget: math.MaxInt64/2000 + 1, cfgMax: 0, want: math.MaxInt64},
		{budget: math.MaxInt64 / 2000, cfgMax: 0, want: (math.MaxInt64 / 2000) * 2000},
	}
	for _, c := range cases {
		if got := watchdogCycles(c.budget, c.cfgMax); got != c.want {
			t.Errorf("watchdogCycles(%d, %d) = %d, want %d", c.budget, c.cfgMax, got, c.want)
		}
		if got := watchdogCycles(c.budget, c.cfgMax); got <= 0 {
			t.Errorf("watchdogCycles(%d, %d) = %d, not positive", c.budget, c.cfgMax, got)
		}
	}
}

// TestSquashRefillAttribution is the regression test for the
// fetch-starved misclassification: cycles a thread spends refilling its
// front end from the post-squash replay queue (or gated behind FLUSH's
// fetch hold) must be charged to squash_refill, not fetch_starved, and
// the stall identity must still balance exactly.
func TestSquashRefillAttribution(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	cfg.PolicyKind = policy.FLUSH // squashes on every L2 miss → plenty of refills
	cfg.Telemetry = &telemetry.Config{}
	res := run(t, cfg, mixSources(t, "Mix 1", 1), 3000)

	if res.FlushSquashes == 0 {
		t.Fatal("FLUSH policy run produced no squashes; workload no longer exercises the refill path")
	}
	sum := res.Telemetry.Summary()
	if err := sum.CheckInvariant(); err != nil {
		t.Fatalf("stall identity broken: %v", err)
	}
	var refill uint64
	for _, th := range sum.Threads {
		refill += th.StallCycles(telemetry.CauseSquashRefill)
	}
	if refill == 0 {
		t.Fatal("no cycles attributed to squash_refill despite flush squashes")
	}
}

// TestConfigBubbleDefaults pins the named fetch-bubble knobs: zero
// normalises to the historical constants, negatives are rejected, and
// the defaults are behaviour-preserving against a hand-built config
// that predates the fields.
func TestConfigBubbleDefaults(t *testing.T) {
	cfg := baselineCfg(2, 32)
	cfg.BTBMissBubble = 0
	cfg.RedirectBubble = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.BTBMissBubble != 2 || cfg.RedirectBubble != 1 {
		t.Fatalf("zero bubbles normalised to (%d, %d), want (2, 1)", cfg.BTBMissBubble, cfg.RedirectBubble)
	}
	bad := baselineCfg(2, 32)
	bad.BTBMissBubble = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative BTBMissBubble accepted")
	}
	bad = baselineCfg(2, 32)
	bad.RedirectBubble = -2
	if err := bad.Validate(); err == nil {
		t.Fatal("negative RedirectBubble accepted")
	}

	legacy := baselineCfg(4, 32)
	legacy.BTBMissBubble = 0
	legacy.RedirectBubble = 0
	a := run(t, legacy, mixSources(t, "Mix 1", 1), diffBudget)
	b := run(t, baselineCfg(4, 32), mixSources(t, "Mix 1", 1), diffBudget)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("zero-valued bubble knobs changed timing relative to the defaults")
	}
}

// steppedShare runs cfg on mix with the skip-ahead engine and returns
// the share of its cycles that stepCycle simulated one at a time.
func steppedShare(t *testing.T, cfg Config, mix string, seed, budget uint64) float64 {
	t.Helper()
	c, err := New(cfg, mixSources(t, mix, seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	return float64(c.stepped) / float64(res.Cycles)
}

// TestReactiveRechecksDoNotForceSteps guards the skip-ahead engine's
// speed on the reactive schemes without timing noise. They recheck each
// pending L2 miss every 10 cycles; a recheck whose structural condition
// fails against frozen rings cannot succeed, so it must not wake the
// engine. While such rechecks were wake-ups, 0.71–0.77 of Mix 1's cycles
// (seeds 1–3, budget 2000) were stepped one at a time; as decisive
// wake-ups they step 0.18–0.24, next to Baseline_32's 0.19–0.20.
func TestReactiveRechecksDoNotForceSteps(t *testing.T) {
	const bound = 0.45
	for _, sc := range []struct {
		name string
		cfg  rob.Config
	}{
		{"RROB_16", rob.DefaultConfig(4, rob.Reactive, 16)},
		{"RelaxedRROB_15", rob.DefaultConfig(4, rob.RelaxedReactive, 15)},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			if share := steppedShare(t, DefaultConfig(4, sc.cfg), "Mix 1", seed, 2000); share >= bound {
				t.Errorf("%s Mix 1 seed %d: %.3f of cycles stepped, want < %.2f", sc.name, seed, share, bound)
			}
		}
	}
}
