package pipeline

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/rob"
)

var stageNames = [numStages]string{"writeback", "commit", "rob", "issue", "dispatch", "fetch", "skip"}

// stageSchemes are the four machines of the work ledger and of the
// benchmark's simulator workloads.
var stageSchemes = []struct {
	name string
	cfg  rob.Config
}{
	{"Baseline_32", rob.Config{Threads: 4, L1Size: 32, Scheme: rob.Baseline}},
	{"RROB_16", rob.DefaultConfig(4, rob.Reactive, 16)},
	{"CDRROB_15", rob.DefaultConfig(4, rob.CountDelayedReactive, 15)},
	{"PROB_5", rob.DefaultConfig(4, rob.Predictive, 5)},
}

// BenchmarkStages times each stage of the stepped cycles, reported as
// ns per stepped cycle: four schemes × Mix 1 and Mix 10, budget 20k,
// ICOUNT (the policy every figure and benchmark cell runs). The clock
// reads the time at every stage boundary; the mean cost of one read,
// measured first, is taken off each lap. Compare stages with each other
// and across commits on one host.
//
//	go test -run '^$' -bench '^BenchmarkStages$' -benchtime 5x ./internal/pipeline
func BenchmarkStages(b *testing.B) {
	read := clockReadCost()
	for _, sc := range stageSchemes {
		for _, mix := range []string{"Mix 1", "Mix 10"} {
			cfg := DefaultConfig(4, sc.cfg)
			cfg.PolicyKind = policy.ICOUNT
			b.Run(sc.name+"/"+strings.ReplaceAll(mix, " ", ""), func(b *testing.B) {
				var clk stageClock
				var stepped int64
				for i := 0; i < b.N; i++ {
					c, err := New(cfg, mixSources(b, mix, 1))
					if err != nil {
						b.Fatal(err)
					}
					c.clock = &clk
					if _, err := c.Run(20_000); err != nil {
						b.Fatal(err)
					}
					stepped += c.stepped
					c.Release()
				}
				for st, ns := range clk.ns {
					own := ns - time.Duration(clk.laps[st])*read
					b.ReportMetric(float64(own)/float64(stepped), stageNames[st]+"-ns/cycle")
				}
			})
		}
	}
}

// clockReadCost returns the mean cost of one time.Now call.
func clockReadCost() time.Duration {
	const reads = 100_000
	start := time.Now()
	for i := 0; i < reads; i++ {
		time.Now()
	}
	return time.Since(start) / reads
}

// TestStageClockKeepsResult: a timed run gives the same Result as an
// untimed one, and the clock charges every stage.
func TestStageClockKeepsResult(t *testing.T) {
	cfg := DefaultConfig(4, stageSchemes[1].cfg)
	run := func(clk *stageClock) Result {
		c, err := New(cfg, mixSources(t, "Mix 1", 1))
		if err != nil {
			t.Fatal(err)
		}
		c.clock = clk
		res, err := c.Run(2_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var clk stageClock
	if !reflect.DeepEqual(run(nil), run(&clk)) {
		t.Fatal("a timed run's Result differs from an untimed run's")
	}
	for st, ns := range clk.ns {
		if ns <= 0 {
			t.Errorf("stage %s charged %v", stageNames[st], ns)
		}
	}
}
