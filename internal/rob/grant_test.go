package rob

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/uop"
)

// pushLoad appends one load with the given PC-distinguishing sequence
// number and returns its slot.
func pushLoad(tl *TwoLevel, tid int, seq uint64) int32 {
	slot, ld := tl.Ring(tid).Push()
	ld.Op = isa.OpLoad
	ld.DestPhys = 100
	ld.Seq = seq
	return slot
}

// trainLoad runs one full detect/service round for a static load so the
// predictor holds a below-threshold value for it.
func trainLoad(t *testing.T, tl *TwoLevel, pc uint64, at int64) {
	t.Helper()
	slot := pushLoad(tl, 0, 1)
	tl.MissDetected(0, slot, pc, 0, at)
	if _, ok := tl.MissServiced(0, slot, at+40); !ok {
		t.Fatalf("training miss for pc %#x not tracked", pc)
	}
	tl.Ring(0).PopHead()
	tl.maybeRelease()
	if err := tl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPiggybackGrantHeldUntilLastService is the regression test for the
// double-grant early-release bug: when a second qualifying miss of the
// owning thread piggybacks on the tenancy, servicing the FIRST granted
// miss must not release the partition — the second grant's shadow is
// still live (§5.2's allocate-as-atomic-unit semantics).
func TestPiggybackGrantHeldUntilLastService(t *testing.T) {
	cfg := DefaultConfig(1, Predictive, 5)
	tl := MustNew(cfg)
	trainLoad(t, tl, 0x100, 0)
	trainLoad(t, tl, 0x200, 50)

	slotA := pushLoad(tl, 0, 10)
	slotB := pushLoad(tl, 0, 11)
	tl.MissDetected(0, slotA, 0x100, 0, 100)
	if tl.Owner() != 0 {
		t.Fatal("trained below-threshold prediction did not allocate")
	}
	tl.MissDetected(0, slotB, 0x200, 0, 101)
	s := tl.Stats()
	if s.PiggybackGrants != 1 {
		t.Fatalf("PiggybackGrants = %d, want 1", s.PiggybackGrants)
	}
	if err := tl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	if _, ok := tl.MissServiced(0, slotA, 200); !ok {
		t.Fatal("miss A not tracked")
	}
	if tl.Owner() != 0 {
		t.Fatal("partition released while the piggybacked grant's shadow is live")
	}
	if got := tl.Stats().Releases; got != 0 {
		t.Fatalf("Releases = %d before the last granted miss retired", got)
	}

	if _, ok := tl.MissServiced(0, slotB, 300); !ok {
		t.Fatal("miss B not tracked")
	}
	if tl.Owner() != -1 {
		t.Fatal("partition not released after the last granted miss")
	}
	s = tl.Stats()
	if s.Allocations != 1 || s.Releases != 1 {
		t.Fatalf("Allocations=%d Releases=%d, want 1/1 for one tenancy", s.Allocations, s.Releases)
	}
	if err := tl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPiggybackGrantSurvivesFirstSquash covers the squash side of the
// same lifecycle: squashing the first granted miss keeps the tenancy for
// the still-live second grant; squashing that too releases it.
func TestPiggybackGrantSurvivesFirstSquash(t *testing.T) {
	cfg := DefaultConfig(1, Predictive, 5)
	tl := MustNew(cfg)
	trainLoad(t, tl, 0x100, 0)
	trainLoad(t, tl, 0x200, 50)

	slotA := pushLoad(tl, 0, 10)
	slotB := pushLoad(tl, 0, 11)
	tl.MissDetected(0, slotA, 0x100, 0, 100)
	tl.MissDetected(0, slotB, 0x200, 0, 101)
	if tl.Owner() != 0 || tl.Stats().PiggybackGrants != 1 {
		t.Fatalf("setup: owner=%d stats=%+v", tl.Owner(), tl.Stats())
	}

	tl.EntrySquashed(0, slotA)
	if tl.Owner() != 0 {
		t.Fatal("partition released on first squash with a live piggybacked grant")
	}
	if err := tl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tl.EntrySquashed(0, slotB)
	if tl.Owner() != -1 {
		t.Fatal("partition not released after the last granted miss was squashed")
	}
	if err := tl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUntrainedLookupNotCountedAsDoDDenial checks the accounting split: a
// cold predictor lookup makes no prediction, so it must bump
// DeniedUntrained and leave DeniedDoD (an above-threshold decision)
// untouched.
func TestUntrainedLookupNotCountedAsDoDDenial(t *testing.T) {
	cfg := DefaultConfig(1, Predictive, 5)
	tl := MustNew(cfg)
	slot := pushLoad(tl, 0, 1)
	tl.MissDetected(0, slot, 0x100, 0, 0)
	s := tl.Stats()
	if s.DeniedUntrained != 1 {
		t.Fatalf("DeniedUntrained = %d, want 1", s.DeniedUntrained)
	}
	if s.DeniedDoD != 0 {
		t.Fatalf("DeniedDoD = %d for a cold lookup, want 0", s.DeniedDoD)
	}
	if tl.Owner() != -1 {
		t.Fatal("cold lookup allocated the partition")
	}
}

// TestIncrementalDoDMatchesLinearWalk drives a ring through a long
// randomized insert/execute/squash/commit sequence and checks after every
// step that the incremental counter agrees with the original O(window)
// walk, that HeadDone agrees with the head entry's status, and that the
// ring's internal invariants (unexec counter and every slot's bit) hold.
// The capacities straddle the 64-slot words of the bitset: one word,
// exactly one, one slot into a second, three, and the paper's 416-entry
// ring. The seed is fixed for reproducibility.
func TestIncrementalDoDMatchesLinearWalk(t *testing.T) {
	DebugCrossCheckDoD = true
	defer func() { DebugCrossCheckDoD = false }()

	for _, capacity := range []int{1, 63, 64, 65, 130, 416} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) { dodWalk(t, capacity) })
	}
}

func dodWalk(t *testing.T, capacity int) {
	rng := rand.New(rand.NewSource(20080613)) // the paper's conference year+month+day
	r := NewRing(capacity)
	seq := uint64(1)
	for step := 0; step < 25_000; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // dispatch
			if r.Len() < capacity {
				_, e := r.Push()
				e.Seq = seq
				seq++
				e.DestPhys = uop.NoReg
				e.SrcPhys = [2]int32{uop.NoReg, uop.NoReg}
				if rng.Intn(4) == 0 {
					e.Op = isa.OpLoad
					e.DestPhys = int32(100 + rng.Intn(32))
				}
			}
		case op < 60: // execute a random live entry
			if r.Len() > 0 {
				r.MarkExecuted(r.SlotAt(rng.Intn(r.Len())))
			}
		case op < 70: // squash a random live entry (misprediction walk)
			if r.Len() > 0 {
				r.MarkSquashed(r.SlotAt(rng.Intn(r.Len())))
			}
		case op < 90: // commit
			if r.Len() > 0 {
				r.PopHead()
			}
		default: // tail removal (squash walk pops)
			if r.Len() > 0 {
				r.PopTail()
			}
		}
		if r.Len() > 0 {
			slot := r.SlotAt(rng.Intn(r.Len()))
			// ApproxDoD itself cross-checks (DebugCrossCheckDoD panics on
			// divergence); the explicit comparison gives a test failure
			// with context instead.
			if got, want := ApproxDoD(r, slot), ApproxDoDLinear(r, slot); got != want {
				t.Fatalf("step %d slot %d: incremental %d != linear %d", step, slot, got, want)
			}
		}
		if h := r.Head(); r.HeadDone() != (h != nil && (h.Executed || h.Squashed)) {
			t.Fatalf("step %d: HeadDone %v for head %+v", step, r.HeadDone(), h)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
