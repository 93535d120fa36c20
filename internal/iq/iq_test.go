package iq

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/uop"
)

func entry(tid int8, seq uint64, srcs ...int32) Entry {
	e := Entry{H: uop.Handle{Tid: tid}, Seq: seq, Op: isa.OpIntAlu, Src: [2]int32{uop.NoReg, uop.NoReg}}
	for i, s := range srcs {
		e.Src[i] = s
		e.Rdy[i] = false
	}
	for i := range e.Rdy {
		if e.Src[i] == uop.NoReg {
			e.Rdy[i] = true
		}
	}
	return e
}

// testRegs is the physical register count of the queues below: every
// register a test names is a uint8.
const testRegs = 256

// ins inserts e's fields.
func ins(q *IQ, e Entry) bool {
	u := uop.UOp{Tid: e.H.Tid, RobSlot: e.H.Slot, Seq: e.Seq, Op: e.Op, SrcPhys: e.Src}
	return q.Insert(&u, e.Rdy)
}

func TestInsertAndCapacity(t *testing.T) {
	q, err := New(4, 2, testRegs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !ins(q, entry(0, uint64(i))) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if ins(q, entry(0, 99)) {
		t.Fatal("insert into full queue succeeded")
	}
	if q.Len() != 4 || q.Free() != 0 || q.CountOf(0) != 4 {
		t.Fatalf("counts: len=%d free=%d per=%d", q.Len(), q.Free(), q.CountOf(0))
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWakeupAndSelect(t *testing.T) {
	q, _ := New(8, 1, testRegs)
	ins(q, entry(0, 1, 100, 101))
	ins(q, entry(0, 2)) // always ready
	buf := q.CollectReady(nil)
	if len(buf) != 1 || q.Entry(buf[0]).Seq != 2 {
		t.Fatalf("ready set: %v", buf)
	}
	q.Wakeup(100)
	if len(q.CollectReady(buf)) != 1 {
		t.Fatal("half-woken entry became ready")
	}
	q.Wakeup(101)
	buf = q.CollectReady(buf)
	if len(buf) != 2 {
		t.Fatalf("after full wakeup: %v", buf)
	}
}

func TestOldestFirstOrder(t *testing.T) {
	q, _ := New(8, 1, testRegs)
	ins(q, entry(0, 30))
	ins(q, entry(0, 10))
	ins(q, entry(0, 20))
	buf := q.CollectReady(nil)
	if len(buf) != 3 {
		t.Fatalf("ready: %v", buf)
	}
	seqs := []uint64{q.Entry(buf[0]).Seq, q.Entry(buf[1]).Seq, q.Entry(buf[2]).Seq}
	if seqs[0] != 10 || seqs[1] != 20 || seqs[2] != 30 {
		t.Fatalf("not oldest-first: %v", seqs)
	}
}

func TestRemoveFreesSlot(t *testing.T) {
	q, _ := New(2, 1, testRegs)
	ins(q, entry(0, 1))
	ins(q, entry(0, 2))
	buf := q.CollectReady(nil)
	q.Remove(buf[0])
	if q.Len() != 1 || q.Free() != 1 {
		t.Fatal("remove did not free")
	}
	if !ins(q, entry(0, 3)) {
		t.Fatal("slot not reusable")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSquashYounger(t *testing.T) {
	q, _ := New(8, 2, testRegs)
	ins(q, entry(0, 10))
	ins(q, entry(0, 20))
	ins(q, entry(1, 15)) // other thread, must survive
	ins(q, entry(0, 30))
	n := q.SquashYounger(0, 10)
	if n != 2 {
		t.Fatalf("squashed %d entries, want 2", n)
	}
	if q.CountOf(0) != 1 || q.CountOf(1) != 1 {
		t.Fatalf("per-thread: %d %d", q.CountOf(0), q.CountOf(1))
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyStats(t *testing.T) {
	q, _ := New(4, 1, testRegs)
	ins(q, entry(0, 1))
	q.Tick()
	q.Tick()
	s := q.Stats()
	if s.OccupancySum != 2 || s.Cycles != 2 || s.Inserted != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 1, testRegs); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(4, 0, testRegs); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := New(4, 1, 0); err == nil {
		t.Error("zero registers accepted")
	}
}

// Property: inserted minus removed minus squashed equals occupancy, and
// invariants hold across random operation sequences.
func TestQuickIQAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		q, err := New(16, 4, testRegs)
		if err != nil {
			return false
		}
		seq := uint64(0)
		for _, o := range ops {
			switch o % 4 {
			case 0, 1: // insert
				seq++
				ins(q, entry(int8(o%4), seq, int32(o)))
			case 2: // wake + remove one ready
				q.Wakeup(int32(o))
				if buf := q.CollectReady(nil); len(buf) > 0 {
					q.Remove(buf[0])
				}
			case 3: // squash one thread's younger half
				q.SquashYounger(int8(o%4), seq/2)
			}
			if q.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
