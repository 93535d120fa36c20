package rob

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// pushBehindOlder pushes an older ALU op and then n loads into tid's
// ring and returns the loads' slots: none of them is the oldest entry.
func pushBehindOlder(tl *TwoLevel, tid, n int) []int32 {
	ring := tl.Ring(tid)
	_, older := ring.Push()
	older.Op = isa.OpIntAlu
	slots := make([]int32, n)
	for i := range slots {
		s, ld := ring.Push()
		ld.Op = isa.OpLoad
		slots[i] = s
	}
	return slots
}

// blockedManager builds a three-thread manager at cycle 4 whose
// undecided misses are all blocked: threads 0 and 1 track loads that are
// not the oldest entry, detected at cycles 0, 2 and 4 so their rechecks
// fall due out of phase. Thread 2's miss meets every condition and holds
// the partition, so ownership accounting runs through the span too.
func blockedManager(scheme Scheme, iv int) *TwoLevel {
	cfg := DefaultConfig(3, scheme, 16)
	cfg.RecheckInterval = iv
	tl := MustNew(cfg)
	s0 := pushBehindOlder(tl, 0, 2)
	s1 := pushBehindOlder(tl, 1, 1)
	s2 := fillThread(tl, 2, 32)
	markShadowExecuted(tl, 2)
	tl.MissDetected(0, s0[0], 0x100, 0, 0)
	tl.MissDetected(2, s2, 0x300, 0, 0)
	tl.Tick(0)
	tl.Tick(1)
	tl.MissDetected(1, s1[0], 0x200, 0, 2)
	tl.Tick(2)
	tl.Tick(3)
	tl.MissDetected(0, s0[1], 0x180, 0, 4)
	tl.Tick(4)
	return tl
}

// requireSameManager compares everything observable about two managers
// plus the records that decide their future behaviour.
func requireSameManager(t *testing.T, naive, fast *TwoLevel) {
	t.Helper()
	if err := naive.CheckInvariants(); err != nil {
		t.Fatalf("naive: %v", err)
	}
	if err := fast.CheckInvariants(); err != nil {
		t.Fatalf("fast-forward: %v", err)
	}
	if !reflect.DeepEqual(naive.misses, fast.misses) {
		t.Fatalf("miss records differ:\n naive: %+v\n fast:  %+v", naive.misses, fast.misses)
	}
	if naive.Stats() != fast.Stats() {
		t.Fatalf("stats differ:\n naive: %+v\n fast:  %+v", naive.Stats(), fast.Stats())
	}
	if naive.owner != fast.owner || naive.lastNow != fast.lastNow {
		t.Fatalf("owner/clock differ: naive (%d,%d), fast (%d,%d)",
			naive.owner, naive.lastNow, fast.owner, fast.lastNow)
	}
}

// TestFastForwardMatchesTicks holds a skipped span of blocked rechecks
// to the per-cycle reference: FastForward(to-1, k) must
// leave the manager exactly as k single Ticks do, for spans ending
// before, on and after each record's due cycle, and the two must still
// agree once the rings move and the rechecks can succeed.
func TestFastForwardMatchesTicks(t *testing.T) {
	for _, scheme := range []Scheme{Reactive, RelaxedReactive} {
		for _, iv := range []int{1, 3, 10} {
			for to := int64(6); to <= 5+3*int64(iv)+2; to++ {
				t.Run(fmt.Sprintf("%v/iv%d/to%d", scheme, iv, to), func(t *testing.T) {
					naive, fast := blockedManager(scheme, iv), blockedManager(scheme, iv)
					const from = 5
					if due := fast.NextDue(); due != math.MaxInt64 {
						t.Fatalf("NextDue = %d with every recheck blocked", due)
					}
					for c := int64(from); c < to; c++ {
						naive.Tick(c)
					}
					fast.FastForward(to-1, to-from)
					requireSameManager(t, naive, fast)

					// The rings move: thread 0's older op commits and its
					// first load becomes the oldest entry; under Reactive the
					// ring is also filled. Every later Tick must agree.
					for _, tl := range []*TwoLevel{naive, fast} {
						ring := tl.Ring(0)
						ring.PopHead()
						for ring.Len() < tl.cfg.L1Size {
							s, e := ring.Push()
							e.Op = isa.OpIntAlu
							ring.MarkExecuted(s)
						}
					}
					if fast.NextDue() == math.MaxInt64 {
						t.Fatal("NextDue still reports no wake-up after thread 0's load became oldest")
					}
					for c := to; c < to+int64(iv)+1; c++ {
						naive.Tick(c)
						fast.Tick(c)
						requireSameManager(t, naive, fast)
					}
				})
			}
		}
	}
}

// TestNextDueSkipsBlockedRechecks pins the decisive wake-up: NextDue
// names the earliest recheck that could succeed against the rings as
// they stand, passing over earlier ones whose condition fails.
func TestNextDueSkipsBlockedRechecks(t *testing.T) {
	for _, scheme := range []Scheme{Reactive, RelaxedReactive} {
		t.Run(scheme.String(), func(t *testing.T) {
			tl := MustNew(DefaultConfig(2, scheme, 16))
			// Two loads behind older ops, rechecked from cycles 10 and 13.
			s0 := pushBehindOlder(tl, 0, 1)[0]
			tl.MissDetected(0, s0, 0x100, 0, 0)
			tl.Tick(0)
			s1 := pushBehindOlder(tl, 1, 1)[0]
			tl.MissDetected(1, s1, 0x200, 0, 3)
			tl.Tick(3)
			if got := tl.NextDue(); got != math.MaxInt64 {
				t.Fatalf("NextDue = %d with every recheck blocked, want MaxInt64", got)
			}
			// Thread 1's older op commits and its ring fills: its recheck
			// can now succeed, while thread 0's earlier one at cycle 10 is
			// still blocked and passed over.
			ring := tl.Ring(1)
			ring.PopHead()
			for ring.Len() < 32 {
				s, e := ring.Push()
				e.Op = isa.OpIntAlu
				ring.MarkExecuted(s)
			}
			if got := tl.NextDue(); got != 13 {
				t.Fatalf("NextDue = %d once thread 1 is unblocked, want 13", got)
			}
			// Thread 0's load becomes the oldest entry (of a one-entry
			// ring): that clears the Relaxed block only.
			tl.Ring(0).PopHead()
			want := int64(13)
			if scheme == RelaxedReactive {
				want = 10
			}
			if got := tl.NextDue(); got != want {
				t.Fatalf("NextDue = %d once thread 0's load is oldest, want %d", got, want)
			}
		})
	}
}

// TestNextDueWithoutRechecks covers the schemes whose NextDue never
// names a blocked recheck: count-delayed records wait only for their
// snapshot delay, and the non-reactive schemes hold no undecided record.
func TestNextDueWithoutRechecks(t *testing.T) {
	cdr := MustNew(DefaultConfig(2, CountDelayedReactive, 15))
	slot := pushBehindOlder(cdr, 0, 1)[0]
	cdr.MissDetected(0, slot, 0x100, 0, 100)
	cdr.Tick(100)
	if got := cdr.NextDue(); got != 132 {
		t.Fatalf("CDR NextDue = %d, want the snapshot cycle 132", got)
	}
	for _, cfg := range []Config{
		{Threads: 2, L1Size: 32, Scheme: Baseline},
		DefaultConfig(2, Predictive, 5),
		{Threads: 2, L1Size: 32, Scheme: SharedSingle},
	} {
		tl := MustNew(cfg)
		slot := fillThread(tl, 0, 8)
		tl.MissDetected(0, slot, 0x100, 0, 0)
		tl.Tick(0)
		if got := tl.NextDue(); got != math.MaxInt64 {
			t.Fatalf("%v NextDue = %d, want MaxInt64", cfg.Scheme, got)
		}
		if err := tl.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", cfg.Scheme, err)
		}
	}
}
