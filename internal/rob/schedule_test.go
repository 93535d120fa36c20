package rob

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// refRecord is one tracked miss of refManager.
type refRecord struct {
	slot        int32
	detectedAt  int64
	nextCheckAt int64
	decided     bool
	wantAlloc   bool
	granted     bool
}

// refManager is the reactive schemes' scheduling kept as stored state,
// the reference TwoLevel's clock-derived schedule must match: each record
// stores nextCheckAt and a blocked check pushes it RecheckInterval cycles
// on, a tickRot counter rotates grant arbitration, and FastForward rolls
// both forward over a skipped span. It scans every record on every tick
// (no gate) and reads the manager's own rings.
type refManager struct {
	cfg         Config
	rings       []*Ring
	recs        [][]refRecord
	owner       int
	ownerGrants int
	tickRot     int
	stats       Stats
}

func newRefManager(tl *TwoLevel) *refManager {
	return &refManager{cfg: tl.cfg, rings: tl.rings, recs: make([][]refRecord, tl.cfg.Threads), owner: -1}
}

func (r *refManager) missDetected(tid int, slot int32, now int64) {
	r.stats.MissesObserved++
	rec := refRecord{slot: slot, detectedAt: now, nextCheckAt: now}
	if r.cfg.Scheme == CountDelayedReactive {
		rec.nextCheckAt += int64(r.cfg.CountDelay)
	}
	r.recs[tid] = append(r.recs[tid], rec)
}

// remove deletes record i of tid, ending its share of the tenancy.
func (r *refManager) remove(tid, i int) {
	granted := r.recs[tid][i].granted
	r.recs[tid] = append(r.recs[tid][:i], r.recs[tid][i+1:]...)
	if granted && r.owner == tid {
		if r.ownerGrants--; r.ownerGrants == 0 {
			r.owner = -1
			r.stats.Releases++
		}
	}
}

func (r *refManager) missServiced(tid int, slot int32) (int, bool) {
	for i := range r.recs[tid] {
		if r.recs[tid][i].slot == slot {
			r.remove(tid, i)
			dod := ApproxDoD(r.rings[tid], slot)
			r.stats.ServicedMisses++
			r.stats.DoDSum += uint64(dod)
			r.maybeRelease()
			return dod, true
		}
	}
	return 0, false
}

func (r *refManager) entrySquashed(tid int, slot int32) {
	for i := 0; i < len(r.recs[tid]); {
		if r.recs[tid][i].slot == slot {
			r.remove(tid, i)
		} else {
			i++
		}
	}
}

func (r *refManager) maybeRelease() {
	if r.owner >= 0 && len(r.recs[r.owner]) == 0 {
		r.owner, r.ownerGrants = -1, 0
		r.stats.Releases++
	}
}

func (r *refManager) tryAllocate(tid int, rec *refRecord) {
	switch r.owner {
	case tid:
		r.ownerGrants++
		r.stats.PiggybackGrants++
	case -1:
		r.owner, r.ownerGrants = tid, 1
		r.stats.Allocations++
	default:
		r.stats.DeniedBusy++
		return
	}
	rec.wantAlloc, rec.granted = false, true
}

// blocked states the reactive structural conditions (§5.2) afresh.
func (r *refManager) blocked(tid int, rec *refRecord) bool {
	ring := r.rings[tid]
	switch r.cfg.Scheme {
	case Reactive:
		return !ring.IsOldest(rec.slot) || ring.Len() < r.cfg.L1Size
	case RelaxedReactive:
		return !ring.IsOldest(rec.slot)
	}
	return false
}

func (r *refManager) tick(now int64) {
	if r.owner >= 0 {
		r.stats.OwnedCycles++
	}
	r.tickRot = (r.tickRot + 1) % len(r.recs)
	for i := range r.recs {
		tid := (r.tickRot + i) % len(r.recs)
		for j := range r.recs[tid] {
			rec := &r.recs[tid][j]
			switch {
			case rec.decided:
				if rec.wantAlloc && r.owner == -1 {
					r.tryAllocate(tid, rec)
				}
			case now < rec.nextCheckAt:
			case r.blocked(tid, rec):
				rec.nextCheckAt = now + int64(r.cfg.RecheckInterval)
			default:
				rec.decided = true
				if ApproxDoD(r.rings[tid], rec.slot) >= r.cfg.DoDThreshold {
					r.stats.DeniedDoD++
					continue
				}
				rec.wantAlloc = true
				r.tryAllocate(tid, rec)
			}
		}
	}
	r.maybeRelease()
}

func (r *refManager) fastForward(lastTick, k int64) {
	if r.owner >= 0 {
		r.stats.OwnedCycles += uint64(k)
	}
	r.tickRot = int((int64(r.tickRot) + k) % int64(len(r.recs)))
	iv := int64(r.cfg.RecheckInterval)
	for tid := range r.recs {
		for j := range r.recs[tid] {
			rec := &r.recs[tid][j]
			if !rec.decided && rec.nextCheckAt <= lastTick {
				rec.nextCheckAt += iv * ((lastTick - rec.nextCheckAt + iv) / iv)
			}
		}
	}
}

func (r *refManager) nextDue() int64 {
	due := int64(math.MaxInt64)
	for tid := range r.recs {
		for j := range r.recs[tid] {
			rec := &r.recs[tid][j]
			if !rec.decided && rec.nextCheckAt < due && !r.blocked(tid, rec) {
				due = rec.nextCheckAt
			}
		}
	}
	return due
}

// requireSameSchedule compares the owner, the counters and every record's
// decision state, so a decision taken on a different cycle fails on the
// step it happens.
func requireSameSchedule(t *testing.T, when string, ref *refManager, tl *TwoLevel) {
	t.Helper()
	if err := tl.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if tl.Owner() != ref.owner {
		t.Fatalf("%s: owner %d, reference %d", when, tl.Owner(), ref.owner)
	}
	if tl.Stats() != ref.stats {
		t.Fatalf("%s: stats differ:\n got:       %+v\n reference: %+v", when, tl.Stats(), ref.stats)
	}
	for tid, recs := range tl.misses {
		if len(recs) != len(ref.recs[tid]) {
			t.Fatalf("%s: thread %d tracks %d misses, reference %d", when, tid, len(recs), len(ref.recs[tid]))
		}
		for i := range recs {
			got, want := &recs[i], &ref.recs[tid][i]
			if got.slot != want.slot || got.detectedAt != want.detectedAt || got.decided != want.decided ||
				got.wantAlloc != want.wantAlloc || got.granted != want.granted {
				t.Fatalf("%s: thread %d record %d is %+v, reference %+v", when, tid, i, *got, *want)
			}
		}
	}
}

// TestRecheckScheduleMatchesReference drives TwoLevel and the stored-
// schedule reference through the same random sequences — ring dispatch,
// execute, commit and squash, miss detection and service, a Tick every
// cycle and FastForward over frozen spans that end at or before NextDue
// — and requires the same owner, counters and record decisions after
// every step, and the same NextDue after every Tick and span, where the
// pipeline asks it.
func TestRecheckScheduleMatchesReference(t *testing.T) {
	for _, scheme := range []Scheme{Reactive, RelaxedReactive, CountDelayedReactive} {
		for iv := 1; iv <= 10; iv++ {
			for threads := 2; threads <= 4; threads++ {
				t.Run(fmt.Sprintf("%v/iv%d/t%d", scheme, iv, threads), func(t *testing.T) {
					scheduleWalk(t, scheme, iv, threads)
				})
			}
		}
	}
}

func scheduleWalk(t *testing.T, scheme Scheme, iv, threads int) {
	rng := rand.New(rand.NewSource(int64(scheme)*1000 + int64(iv)*10 + int64(threads)))
	cfg := Config{
		Threads: threads, L1Size: 6, L2Size: 10, Scheme: scheme,
		DoDThreshold: 5, RecheckInterval: iv, CountDelay: 3 * (iv - 1),
	}
	tl := MustNew(cfg)
	ref := newRefManager(tl)
	missing := make([][]int32, threads) // slots of each thread's tracked misses
	dropMissing := func(tid int, slot int32) {
		for i, s := range missing[tid] {
			if s == slot {
				missing[tid] = append(missing[tid][:i], missing[tid][i+1:]...)
				return
			}
		}
	}
	isMissing := func(tid int, slot int32) bool {
		for _, s := range missing[tid] {
			if s == slot {
				return true
			}
		}
		return false
	}
	for now := int64(0); now < 6000; now++ {
		for ops := rng.Intn(6); ops > 0; ops-- {
			tid := rng.Intn(threads)
			ring := tl.Ring(tid)
			step := fmt.Sprintf("cycle %d op on thread %d", now, tid)
			switch op := rng.Intn(100); {
			case op < 30: // dispatch
				if tl.CanDispatch(tid) {
					_, e := ring.Push()
					e.Op = isa.OpIntAlu
					if rng.Intn(3) == 0 {
						e.Op = isa.OpLoad
					}
				}
			case op < 50: // execute a live entry that is not a tracked miss
				if ring.Len() > 0 {
					if s := ring.SlotAt(rng.Intn(ring.Len())); !isMissing(tid, s) {
						ring.MarkExecuted(s)
					}
				}
			case op < 68: // detect a miss on an unexecuted load
				if ring.Len() > 0 {
					s := ring.SlotAt(rng.Intn(ring.Len()))
					if e := ring.At(s); e.Op == isa.OpLoad && !e.Executed && !isMissing(tid, s) {
						missing[tid] = append(missing[tid], s)
						tl.MissDetected(tid, s, uint64(s)<<2, 0, now)
						ref.missDetected(tid, s, now)
					}
				}
			case op < 78: // service a tracked miss
				if len(missing[tid]) > 0 {
					s := missing[tid][rng.Intn(len(missing[tid]))]
					dropMissing(tid, s)
					dod, ok := tl.MissServiced(tid, s, now)
					wdod, wok := ref.missServiced(tid, s)
					if dod != wdod || ok != wok {
						t.Fatalf("%s: MissServiced = (%d,%v), reference (%d,%v)", step, dod, ok, wdod, wok)
					}
					ring.MarkExecuted(s)
				}
			case op < 94: // commit
				if ring.HeadDone() {
					ring.PopHead()
				}
			default: // squash walk from the tail
				for n := 1 + rng.Intn(3); n > 0 && ring.Len() > 0; n-- {
					s := ring.SlotAt(ring.Len() - 1)
					dropMissing(tid, s)
					tl.EntrySquashed(tid, s)
					ref.entrySquashed(tid, s)
					ring.PopTail()
				}
			}
			requireSameSchedule(t, step, ref, tl)
		}
		tl.Tick(now)
		ref.tick(now)
		when := fmt.Sprintf("Tick(%d)", now)
		requireSameSchedule(t, when, ref, tl)
		due := tl.NextDue()
		if want := ref.nextDue(); due != want {
			t.Fatalf("after %s: NextDue = %d, reference %d", when, due, want)
		}
		if rng.Intn(6) != 0 || (tl.PendingRetry() && tl.Owner() < 0) {
			continue
		}
		// Skip a frozen span [now+1, to) that ends at or before NextDue.
		to := now + 2 + int64(rng.Intn(4*iv+4))
		if to > due {
			to = due
		}
		if to <= now+1 {
			continue
		}
		k := to - (now + 1)
		tl.FastForward(to-1, k)
		ref.fastForward(to-1, k)
		when = fmt.Sprintf("FastForward(%d, %d)", to-1, k)
		requireSameSchedule(t, when, ref, tl)
		if got, want := tl.NextDue(), ref.nextDue(); got != want {
			t.Fatalf("after %s: NextDue = %d, reference %d", when, got, want)
		}
		now = to - 1
	}
}
