package iq

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/uop"
)

// refIQ is the queue's wakeup as it was before the intrusive waiter
// nodes: a waiter list per physical register, appended at insert, with a
// per-slot generation so that Wakeup skips waiters whose slot was
// recycled or squashed since.
type refIQ struct {
	entries []Entry
	free    []int
	gen     []uint32
	ready   []uint64
	waiters [][]refWaiter
}

type refWaiter struct {
	slot int32
	gen  uint32
}

func newRefIQ(size int) *refIQ {
	q := &refIQ{entries: make([]Entry, size), free: make([]int, size), gen: make([]uint32, size), ready: make([]uint64, (size+63)/64)}
	for i := range q.free {
		q.free[i] = size - 1 - i
	}
	return q
}

func (q *refIQ) addWaiter(phys int32, i int) {
	for int(phys) >= len(q.waiters) {
		q.waiters = append(q.waiters, nil)
	}
	q.waiters[phys] = append(q.waiters[phys], refWaiter{slot: int32(i), gen: q.gen[i]})
}

func (q *refIQ) insert(e Entry) bool {
	if len(q.free) == 0 {
		return false
	}
	i := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	e.Valid = true
	q.entries[i] = e
	if e.Ready() {
		q.ready[i>>6] |= 1 << (uint(i) & 63)
	} else {
		if !e.Rdy[0] {
			q.addWaiter(e.Src[0], i)
		}
		if !e.Rdy[1] && e.Src[1] != e.Src[0] {
			q.addWaiter(e.Src[1], i)
		}
	}
	return true
}

func (q *refIQ) wakeup(phys int32) {
	if int(phys) >= len(q.waiters) {
		return
	}
	for _, w := range q.waiters[phys] {
		i := int(w.slot)
		e := &q.entries[i]
		if q.gen[i] != w.gen || !e.Valid {
			continue
		}
		if e.Src[0] == phys {
			e.Rdy[0] = true
		}
		if e.Src[1] == phys {
			e.Rdy[1] = true
		}
		if e.Ready() {
			q.ready[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	q.waiters[phys] = q.waiters[phys][:0]
}

func (q *refIQ) collectReady() []int {
	var buf []int
	for w, word := range q.ready {
		for word != 0 {
			buf = append(buf, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	slices.SortFunc(buf, func(a, b int) int { return int(q.entries[a].Seq) - int(q.entries[b].Seq) })
	return buf
}

func (q *refIQ) drop(i int) {
	q.entries[i].Valid = false
	q.gen[i]++
	q.ready[i>>6] &^= 1 << (uint(i) & 63)
	q.free = append(q.free, i)
}

func (q *refIQ) squashYounger(tid int8, seq uint64) {
	for i := range q.entries {
		if e := &q.entries[i]; e.Valid && e.H.Tid == tid && e.Seq > seq {
			q.drop(i)
		}
	}
}

// TestWakeupMatchesReference drives the queue and the reference with
// the same random inserts (sources drawn from a few registers, so lists
// are shared and sources repeat), wakeups, issues and squashes, and
// requires the same ready set in the same order and the same entries
// after every operation.
func TestWakeupMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		const size, threads, regs = 16, 3, 12
		q, err := New(size, threads, regs+2)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefIQ(size)
		seq := uint64(0)
		var buf []int
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 5:
				seq++
				e := Entry{H: uop.Handle{Tid: int8(r.Intn(threads))}, Seq: seq, Op: isa.OpIntAlu}
				for k := range e.Src {
					if r.Intn(4) == 0 {
						e.Src[k], e.Rdy[k] = uop.NoReg, true
					} else {
						e.Src[k], e.Rdy[k] = int32(r.Intn(regs)), r.Intn(3) == 0
					}
				}
				if got, want := ins(q, e), ref.insert(e); got != want {
					t.Fatalf("trial %d step %d: Insert = %v, reference %v", trial, step, got, want)
				}
			case op < 8:
				phys := int32(r.Intn(regs + 2))
				q.Wakeup(phys)
				ref.wakeup(phys)
			case op < 9:
				if buf = q.CollectReady(buf); len(buf) > 0 {
					i := buf[r.Intn(len(buf))]
					q.Remove(i)
					ref.drop(i)
				}
			default:
				tid, cut := int8(r.Intn(threads)), uint64(r.Int63n(int64(seq)+1))
				q.SquashYounger(tid, cut)
				ref.squashYounger(tid, cut)
			}
			buf = q.CollectReady(buf)
			if want := ref.collectReady(); !slices.Equal(buf, want) {
				t.Fatalf("trial %d step %d: ready %v, reference %v", trial, step, buf, want)
			}
			if !slices.Equal(q.entries, ref.entries) {
				t.Fatalf("trial %d step %d: entries differ from the reference's", trial, step)
			}
			if err := q.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}
