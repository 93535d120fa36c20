package pipeline

import (
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/rob"
	"repro/internal/workload"
)

// stressRun drives a CPU cycle by cycle, validating the full cross-
// structure invariant set every checkEvery cycles.
func stressRun(t *testing.T, cfg Config, srcs []TraceSource, cycles int64, checkEvery int64) {
	t.Helper()
	c, err := New(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 60
	for c.now < cycles {
		c.writeback()
		c.commit(budget)
		c.rob.Tick(c.now)
		c.iq.Tick()
		c.buildSnapshots()
		c.issue()
		c.dispatch()
		c.fetch()
		c.now++
		if c.now%checkEvery == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c.now, err)
			}
		}
	}
}

func mixSources(t testing.TB, name string, seed uint64) []TraceSource {
	t.Helper()
	mix, ok := workload.MixByName(name)
	if !ok {
		t.Fatalf("unknown mix %q", name)
	}
	gens, err := workload.MixGenerators(mix, seed)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]TraceSource, len(gens))
	for i := range gens {
		srcs[i] = gens[i]
	}
	return srcs
}

// TestInvariantsRejectLiveSquashedEntry: commit and the skip-ahead
// engine read the head's result-valid bit (rob.Ring.HeadDone), which
// is also clear for a squashed entry. That is sound only because the
// squash walk pops every entry it marks, so CheckInvariants must reject
// a live squashed entry.
func TestInvariantsRejectLiveSquashedEntry(t *testing.T) {
	c, err := New(baselineCfg(4, 32), mixSources(t, "Mix 10", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(500); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after a clean run: %v", err)
	}
	for tid := 0; tid < c.cfg.Threads; tid++ {
		ring := c.rob.Ring(tid)
		if ring.Len() == 0 {
			continue
		}
		ring.MarkSquashed(ring.SlotAt(0))
		err := c.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "squashed entry still live") {
			t.Fatalf("thread %d: CheckInvariants = %v, want a live squashed entry", tid, err)
		}
		return
	}
	t.Fatal("every ROB is empty: nothing to squash")
}

func TestStressInvariantsBaseline(t *testing.T) {
	cfg := baselineCfg(4, 32)
	stressRun(t, cfg, mixSources(t, "Mix 5", 1), 30_000, 193)
}

func TestStressInvariantsReactive(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	stressRun(t, cfg, mixSources(t, "Mix 1", 2), 30_000, 193)
}

func TestStressInvariantsPredictive(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Predictive, 5))
	stressRun(t, cfg, mixSources(t, "Mix 2", 3), 30_000, 193)
}

func TestStressInvariantsSharedROB(t *testing.T) {
	cfg := DefaultConfig(4, rob.Config{Threads: 4, L1Size: 32, Scheme: rob.SharedSingle})
	stressRun(t, cfg, mixSources(t, "Mix 8", 4), 30_000, 193)
}

func TestStressInvariantsFlushPolicy(t *testing.T) {
	cfg := baselineCfg(4, 32)
	cfg.PolicyKind = policy.FLUSH
	stressRun(t, cfg, mixSources(t, "Mix 4", 5), 30_000, 193)
}

func TestStressInvariantsEarlyRelease(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	cfg.EarlyRegRelease = true
	stressRun(t, cfg, mixSources(t, "Mix 3", 6), 30_000, 193)
}

func TestStressInvariantsBranchHeavy(t *testing.T) {
	// vpr/crafty-style codes maximize misprediction squashes, the hardest
	// path for rename rollback and IQ/LSQ consistency.
	profs := []string{"vpr", "crafty", "gzip", "twolf"}
	srcs := make([]TraceSource, len(profs))
	for i, name := range profs {
		p, _ := workload.ProfileFor(name)
		srcs[i] = workload.MustNewGenerator(p, uint64(i)+11)
	}
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	cfg.EarlyRegRelease = true
	stressRun(t, cfg, srcs, 30_000, 97)
}

func TestStressInvariantsBaseline128(t *testing.T) {
	cfg := baselineCfg(4, 128)
	stressRun(t, cfg, mixSources(t, "Mix 6", 7), 30_000, 193)
}
