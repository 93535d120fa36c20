package policy

import (
	"math/rand"
	"slices"
	"testing"
)

// refIcountOrder is the ordering icountOrder replaced: enumerate from the
// rotated offset, then a stable insertion sort on FrontEnd+IQ that
// re-reads both counts at every comparison.
func refIcountOrder(snaps []Snapshot, off int, skip func(*Snapshot) bool) []int {
	var order []int
	n := len(snaps)
	t := off - 1
	for i := 0; i < n; i++ {
		if t++; t == n {
			t = 0
		}
		if snaps[t].Finished || (skip != nil && skip(&snaps[t])) {
			continue
		}
		order = append(order, t)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			sa := snaps[order[j-1]].FrontEnd + snaps[order[j-1]].IQ
			sb := snaps[order[j]].FrontEnd + snaps[order[j]].IQ
			if sb >= sa {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return order
}

// refOverShare is the DCRA share check the incremental counts replaced:
// it recounts the fast and slow sharers over every thread on each query,
// counting the asking thread even when it holds no entry.
func refOverShare(d *dcra, s *Snapshot, snaps []Snapshot) bool {
	fast, slow := 0, 0
	for t := range snaps {
		o := &snaps[t]
		if o.Finished {
			continue
		}
		if o.IQ == 0 && o != s {
			continue
		}
		if o.PendingDMiss {
			slow++
		} else {
			fast++
		}
	}
	den := float64(fast) + d.alpha*float64(slow)
	if den <= 0 {
		return false
	}
	share := float64(d.iqSize) / den
	if s.PendingDMiss {
		share *= d.alpha
	}
	if s.OwnsROB {
		share *= 2
	}
	limit := int(share)
	if limit < 1 {
		limit = 1
	}
	return s.IQ >= limit
}

// randSnapshot draws one thread's snapshot; small counts, so that ties,
// empty queues and shares of 1 all occur.
func randSnapshot(r *rand.Rand) Snapshot {
	s := Snapshot{
		FrontEnd:      r.Intn(6),
		PendingDMiss:  r.Intn(2) == 0,
		PendingL2Miss: r.Intn(3) == 0,
		PredictedMLP:  r.Intn(3),
		OwnsROB:       r.Intn(4) == 0,
		Finished:      r.Intn(8) == 0,
	}
	if r.Intn(3) > 0 {
		s.IQ = r.Intn(40)
	}
	return s
}

// TestIcountOrderMatchesReference: over random snapshots, rotor offsets
// and every policy's admission filter, icountOrder returns exactly the
// reference's order.
func TestIcountOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	skips := []func(*Snapshot) bool{
		nil,
		func(s *Snapshot) bool { return s.PendingL2Miss },
		func(s *Snapshot) bool { return s.PendingL2Miss && s.PredictedMLP <= 1 },
	}
	var order []int
	for trial := 0; trial < 20_000; trial++ {
		snaps := make([]Snapshot, 1+r.Intn(10))
		for i := range snaps {
			snaps[i] = randSnapshot(r)
		}
		off := r.Intn(len(snaps))
		skip := skips[r.Intn(len(skips))]
		order = icountOrder(snaps, order, off, skip)
		if want := refIcountOrder(snaps, off, skip); !slices.Equal(order, want) {
			t.Fatalf("trial %d: snaps %+v offset %d: order %v, reference %v", trial, snaps, off, order, want)
		}
	}
}

// TestDCRASharesMatchReference drives DCRA the way the pipeline does —
// a rebuild of every snapshot followed by Observe, or dispatch raising
// one thread's IQ count, with Observe only when the count leaves zero —
// and compares every thread's MayDispatchIQ with the reference formula
// after each step.
func TestDCRASharesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		alpha := []float64{1, 1.5, 2, 3}[r.Intn(4)]
		iqSize := []int{1, 7, 64}[r.Intn(3)]
		d := MustNew(DCRA, alpha, iqSize).(*dcra)
		snaps := make([]Snapshot, 1+r.Intn(6))
		for step := 0; step < 200; step++ {
			if step == 0 || r.Intn(4) == 0 {
				for i := range snaps {
					snaps[i] = randSnapshot(r)
				}
				d.Observe(snaps)
			} else {
				tid := r.Intn(len(snaps))
				if snaps[tid].IQ++; snaps[tid].IQ == 1 {
					d.Observe(snaps)
				}
			}
			for tid := range snaps {
				want := !refOverShare(d, &snaps[tid], snaps)
				if got := d.MayDispatchIQ(tid, snaps); got != want {
					t.Fatalf("trial %d step %d: alpha %g, IQ size %d, snaps %+v: MayDispatchIQ(%d) = %v, reference %v",
						trial, step, alpha, iqSize, snaps, tid, got, want)
				}
			}
		}
	}
}
