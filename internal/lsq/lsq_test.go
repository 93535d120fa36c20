package lsq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newLSQ(t *testing.T, threads, size int) *LSQ {
	t.Helper()
	l, err := New(threads, size)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestInsertPopOrder(t *testing.T) {
	l := newLSQ(t, 1, 4)
	s1 := l.Insert(0, 10, 1, false, 0x100)
	s2 := l.Insert(0, 11, 2, true, 0x200)
	if l.Count(0) != 2 {
		t.Fatalf("count = %d", l.Count(0))
	}
	if h := l.Head(0); h == nil || h.RobSlot != 10 {
		t.Fatal("head is not the oldest entry")
	}
	l.PopHead(0)
	if h := l.Head(0); h == nil || h.RobSlot != 11 {
		t.Fatal("pop order wrong")
	}
	_ = s1
	_ = s2
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCapacity(t *testing.T) {
	l := newLSQ(t, 2, 2)
	l.Insert(0, 1, 1, false, 0x10)
	l.Insert(0, 2, 2, false, 0x18)
	if l.CanInsert(0) {
		t.Fatal("full queue reports space")
	}
	if !l.CanInsert(1) {
		t.Fatal("other thread blocked by full queue")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	l := newLSQ(t, 1, 8)
	st := l.Insert(0, 1, 1, true, 0x1000)
	ld := l.Insert(0, 2, 2, false, 0x1000)
	blocked, fwd := l.LoadCheck(0, ld)
	if !blocked || fwd {
		t.Fatal("load not blocked by unexecuted older store")
	}
	l.MarkExecuted(0, st)
	blocked, fwd = l.LoadCheck(0, ld)
	if blocked || !fwd {
		t.Fatal("executed store did not forward")
	}
	s := l.Stats()
	if s.Blocked != 1 || s.Forwarded != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestYoungestMatchingStoreWins(t *testing.T) {
	l := newLSQ(t, 1, 8)
	old := l.Insert(0, 1, 1, true, 0x2000)
	young := l.Insert(0, 2, 2, true, 0x2000)
	ld := l.Insert(0, 3, 3, false, 0x2000)
	l.MarkExecuted(0, old)
	// The youngest older store is unexecuted: the load must wait even
	// though an older executed store matches.
	if blocked, _ := l.LoadCheck(0, ld); !blocked {
		t.Fatal("load bypassed the youngest matching store")
	}
	l.MarkExecuted(0, young)
	if blocked, fwd := l.LoadCheck(0, ld); blocked || !fwd {
		t.Fatal("load did not forward from youngest store")
	}
}

func TestDifferentAddressesIndependent(t *testing.T) {
	l := newLSQ(t, 1, 8)
	l.Insert(0, 1, 1, true, 0x3000)
	ld := l.Insert(0, 2, 2, false, 0x4000)
	if blocked, fwd := l.LoadCheck(0, ld); blocked || fwd {
		t.Fatal("unrelated store affected load")
	}
}

func TestSubWordAliasing(t *testing.T) {
	l := newLSQ(t, 1, 8)
	l.Insert(0, 1, 1, true, 0x5004) // same 8-byte word as 0x5000
	ld := l.Insert(0, 2, 2, false, 0x5000)
	if blocked, _ := l.LoadCheck(0, ld); !blocked {
		t.Fatal("8-byte aliasing not detected")
	}
}

func TestPopTailSquash(t *testing.T) {
	l := newLSQ(t, 1, 8)
	l.Insert(0, 1, 1, false, 0x10)
	l.Insert(0, 2, 2, true, 0x20)
	l.PopTail(0, 2)
	if l.Count(0) != 1 {
		t.Fatalf("count = %d", l.Count(0))
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPopTailOrderViolationPanics(t *testing.T) {
	l := newLSQ(t, 1, 8)
	l.Insert(0, 1, 1, false, 0x10)
	l.Insert(0, 2, 2, false, 0x20)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order squash pop did not panic")
		}
	}()
	l.PopTail(0, 1) // tail has seq 2
}

func TestWrapAround(t *testing.T) {
	l := newLSQ(t, 1, 3)
	seq := uint64(0)
	for round := 0; round < 5; round++ {
		seq++
		l.Insert(0, int32(seq), seq, false, 0x100*seq)
		if round >= 2 {
			l.PopHead(0)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := New(1, 0); err == nil {
		t.Error("zero size accepted")
	}
}

// Property: per-thread entries always pop in insertion (program) order
// under random insert/pop-head/pop-tail sequences.
func TestQuickProgramOrder(t *testing.T) {
	f := func(ops []uint8) bool {
		l, err := New(1, 8)
		if err != nil {
			return false
		}
		seq := uint64(0)
		var pending []uint64 // seqs in queue, oldest first
		for _, o := range ops {
			switch o % 3 {
			case 0: // insert
				if !l.CanInsert(0) {
					continue
				}
				seq++
				l.Insert(0, int32(seq), seq, o%2 == 0, uint64(o)*8+8)
				pending = append(pending, seq)
			case 1: // commit oldest
				if len(pending) == 0 {
					continue
				}
				if l.Head(0).Seq != pending[0] {
					return false
				}
				l.PopHead(0)
				pending = pending[1:]
			case 2: // squash youngest
				if len(pending) == 0 {
					continue
				}
				l.PopTail(0, pending[len(pending)-1])
				pending = pending[:len(pending)-1]
			}
			if l.CheckInvariants() != nil {
				return false
			}
		}
		return l.Count(0) == len(pending)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refEntry is one queued memory op in the reference model.
type refEntry struct {
	slot     int32
	seq      uint64
	isStore  bool
	addr     uint64
	executed bool
}

// refLoadCheck is LoadCheck as a plain walk over every older entry, with
// no store-bucket filter: the youngest older same-address store decides.
func refLoadCheck(q []refEntry, pos int) (blocked, forward bool) {
	for i := pos - 1; i >= 0; i-- {
		if s := q[i]; s.isStore && s.addr == q[pos].addr {
			return !s.executed, s.executed
		}
	}
	return false, false
}

// TestFilteredLoadCheckMatchesFullWalk holds LoadCheck, which skips the
// walk when the load's address bucket holds no live store, to a full
// reference walk under random insert, execute, commit (PopHead) and
// squash (PopTail) traffic. Few distinct addresses, several of them
// sharing a bucket, keep matches and bucket collisions frequent; queue
// sizes that do not divide the traffic make the ring wrap at every
// offset. Every answer and the Forwarded/Blocked stats must agree.
func TestFilteredLoadCheckMatchesFullWalk(t *testing.T) {
	// 0x1000, 0x1200 and 0x1400 share a bucket; 0x1004 aliases 0x1000's
	// 8-byte word; 0x1008 sits in the next bucket.
	addrs := []uint64{0x1000, 0x1200, 0x1400, 0x1004, 0x1008}
	rng := rand.New(rand.NewSource(20080909))
	for _, size := range []int{1, 5, 48} {
		l := newLSQ(t, 2, size)
		var want Stats
		queues := make([][]refEntry, 2)
		seq := uint64(0)
		for step := 0; step < 40_000; step++ {
			tid := rng.Intn(2)
			q := queues[tid]
			switch op := rng.Intn(100); {
			case op < 35: // dispatch
				if !l.CanInsert(tid) {
					continue
				}
				seq++
				isStore := rng.Intn(3) == 0
				addr := addrs[rng.Intn(len(addrs))]
				slot := l.Insert(tid, int32(seq), seq, isStore, addr)
				queues[tid] = append(q, refEntry{slot: slot, seq: seq, isStore: isStore, addr: addr &^ 7})
				want.Inserted++
			case op < 55: // execute
				if len(q) == 0 {
					continue
				}
				i := rng.Intn(len(q))
				l.MarkExecuted(tid, q[i].slot)
				q[i].executed = true
			case op < 70: // commit
				if len(q) == 0 {
					continue
				}
				l.PopHead(tid)
				queues[tid] = q[1:]
			case op < 80: // squash
				if len(q) == 0 {
					continue
				}
				l.PopTail(tid, q[len(q)-1].seq)
				queues[tid] = q[:len(q)-1]
			default: // a load asks to issue
				if len(q) == 0 {
					continue
				}
				i := rng.Intn(len(q))
				if q[i].isStore {
					continue
				}
				gb, gf := l.LoadCheck(tid, q[i].slot)
				wb, wf := refLoadCheck(q, i)
				if gb != wb || gf != wf {
					t.Fatalf("size %d step %d: LoadCheck seq %d = (%v,%v), full walk (%v,%v)",
						size, step, q[i].seq, gb, gf, wb, wf)
				}
				if wb {
					want.Blocked++
				}
				if wf {
					want.Forwarded++
				}
			}
			if got := l.Stats(); got != want {
				t.Fatalf("size %d step %d: stats %+v, want %+v", size, step, got, want)
			}
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("size %d step %d: %v", size, step, err)
			}
		}
	}
}
