package pipeline

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/rob"
)

// ledgerGolden is the committed work ledger of the fixed matrix below.
const ledgerGolden = "testdata/work_ledger.golden"

// ledgerHeader names the columns of ledgerGolden.
const ledgerHeader = "# scheme mix seed cycles stepped skip_spans events_pushed events_popped ready_entries gate_evals load_checks lsq_inspected dod_index_writes iq_compares wakeup_visits cache_lookups"

// ledgerLine runs one configuration of the matrix and formats its work
// ledger as one line of ledgerGolden.
func ledgerLine(t *testing.T, scheme string, cfg rob.Config, mix string, seed uint64) string {
	t.Helper()
	c, err := New(DefaultConfig(4, cfg), mixSources(t, mix, seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	var dodWrites uint64
	for tid := 0; tid < c.cfg.Threads; tid++ {
		dodWrites += c.rob.Ring(tid).IndexWrites()
	}
	c.Release()
	w := c.work
	lookups := res.L1I.Accesses + res.L1D.Accesses + res.L2.Accesses
	return fmt.Sprintf("%s %s %d %d %d %d %d %d %d %d %d %d %d %d %d %d",
		scheme, strings.ReplaceAll(mix, " ", ""), seed, res.Cycles, c.stepped, w.skipSpans,
		w.eventsPushed, w.eventsPopped, w.readyEntries, w.gateEvals, w.loadChecks,
		c.lsq.Inspected(), dodWrites, c.iq.Compares(), c.iq.WaiterVisits(), lookups)
}

// TestWorkLedgerGolden pins the work the engine does, counted instead of
// timed so that host noise cannot hide a change: four schemes × Mix 1
// and Mix 10 × seeds 1 and 2, budget 20k. Any difference fails. An
// optimisation that changes a count on purpose re-records the file from
// the table this test prints on failure and lists every changed count,
// before and after, in CHANGES.md.
func TestWorkLedgerGolden(t *testing.T) {
	schemes := []struct {
		name string
		cfg  rob.Config
	}{
		{"Baseline_32", rob.Config{Threads: 4, L1Size: 32, Scheme: rob.Baseline}},
		{"RROB_16", rob.DefaultConfig(4, rob.Reactive, 16)},
		{"CDRROB_15", rob.DefaultConfig(4, rob.CountDelayedReactive, 15)},
		{"PROB_5", rob.DefaultConfig(4, rob.Predictive, 5)},
	}
	got := []string{ledgerHeader}
	for _, sc := range schemes {
		for _, mix := range []string{"Mix 1", "Mix 10"} {
			for _, seed := range []uint64{1, 2} {
				got = append(got, ledgerLine(t, sc.name, sc.cfg, mix, seed))
			}
		}
	}
	raw, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	if table := strings.Join(got, "\n") + "\n"; table != string(raw) {
		t.Errorf("work ledger differs from %s; this tree counts:\n%s", ledgerGolden, table)
	}
}
