package main

import (
	"reflect"
	"testing"
	"time"
)

// Fixed logical member names make ring ownership independent of the
// ports the listeners bind, so a fixed request sequence splits its
// simulations between the workers identically on every run, as long as
// no request is slow enough for the coordinator to hedge it onto the
// other worker.
func TestFleetSimulationSplitRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two fleets")
	}
	split := func() (sims []uint64, hedges uint64) {
		l, err := drawLoad(7, 400)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := memBudget(l)
		if err != nil {
			t.Fatal(err)
		}
		f, err := startFleet(t.TempDir(), mem, false)
		if err != nil {
			t.Fatal(err)
		}
		defer f.stop()
		c := f.net.client(nil)
		ck := &checker{results: map[int][]byte{}}
		if err := f.warm(c, l, ck); err != nil {
			t.Fatal(err)
		}
		rs, n := drive(c, l, ck, 0, time.Minute, false)
		if n != len(l.draws) || ck.failed != 0 {
			t.Fatalf("answered %d of %d requests, %d failed", n, len(l.draws), ck.failed)
		}
		if checked, bad := verifyMisses(l, rs); checked == 0 || bad != 0 {
			t.Fatalf("verified %d misses, %d differ from the in-process run", checked, bad)
		}
		for _, srv := range f.servers {
			sims = append(sims, srv.Stats().Simulations)
		}
		return sims, f.coord.Stats().HedgesFired
	}
	a, hedgesA := split()
	b, hedgesB := split()
	if hedgesA+hedgesB > 0 {
		t.Skipf("%d requests outlived the coordinator's hedge delay (a slow build such as -race), so placement was not deterministic", hedgesA+hedgesB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("per-worker simulations differ between runs: %v vs %v", a, b)
	}
	if a[0] == 0 || a[1] == 0 {
		t.Fatalf("one worker simulated nothing: %v", a)
	}
	t.Logf("per-worker simulations: %v", a)
}
