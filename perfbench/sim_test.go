package main

import (
	"testing"

	tlrob "repro"
)

// The traced phase builds machines itself to time pipeline.New and
// CPU.Run apart; it must simulate exactly what tlrob.RunMix does.
func TestTracedCellMatchesRunMix(t *testing.T) {
	cells, benches, err := simCells("sim-membound")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	singles, err := tlrob.SingleIPCs(benches, tlrob.Options{Budget: simBudget, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s := &simRun{singles: map[uint64]map[string]float64{seed: singles}}
	golden, err := loadGolden("sim-membound", seed, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5} { // Baseline_32 Mix 1, R-ROB16 Mix 2
		c := cells[i]
		r, err := tlrob.RunMix(c.mix, c.options(seed), singles)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := s.runTraced(c, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		want := c.asGolden(r.Cycles, committedOf(r), r.FairThroughput)
		if got := c.asGolden(tc.res.Cycles, tc.committed, tc.ft); got != want {
			t.Errorf("cell %d: traced %+v, RunMix %+v", i, got, want)
		}
		if want != golden[i] {
			t.Errorf("cell %d: RunMix %+v, golden %+v", i, want, golden[i])
		}
	}
}
