// Package iq models the shared issue queue (Table 1: 64 entries for the
// 4-way SMT machine). Entries hold renamed source operands with ready
// bits; completed producers broadcast ("wakeup") and ready entries are
// selected oldest-first up to the issue width. An instruction occupies its
// entry from dispatch until it issues — which is precisely why
// load-dependent instructions in the shadow of an L2 miss clog the queue,
// the pressure the paper's DoD threshold exists to avoid.
package iq

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/uop"
)

// Entry is one issue-queue slot.
type Entry struct {
	H     uop.Handle
	Seq   uint64
	Op    isa.OpClass
	Src   [2]int32
	Rdy   [2]bool
	Valid bool
}

// Ready reports whether both sources are available.
func (e *Entry) Ready() bool { return e.Rdy[0] && e.Rdy[1] }

// waiter records that slot was waiting on a register when it was inserted;
// gen detects slots recycled since (stale waiters are skipped).
type waiter struct {
	slot int32
	gen  uint32
}

// IQ is the shared issue queue. The hardware CAM broadcast is modelled in
// RAM terms: each not-ready source registers a waiter on its physical
// register at insert, so Wakeup touches exactly the waiting entries
// instead of scanning every slot, and a ready bitmap lets CollectReady
// enumerate only the slots whose operands have all arrived.
type IQ struct {
	entries   []Entry
	count     int
	perThread []int
	free      []int      // stack of free slot indices (O(1) insert)
	gen       []uint32   // per-slot recycle generation (stale-waiter check)
	ready     []uint64   // bitmap: valid && both sources ready
	waiters   [][]waiter // per physical register, grown on demand
	stats     Stats
}

// Stats counts queue activity.
type Stats struct {
	Inserted     uint64
	Issued       uint64
	Squashed     uint64
	OccupancySum uint64 // summed each cycle by Tick for mean occupancy
	Cycles       uint64
}

// New builds an issue queue with the given size and thread count.
func New(size, threads int) (*IQ, error) {
	if size < 1 || threads < 1 {
		return nil, fmt.Errorf("iq: bad geometry size=%d threads=%d", size, threads)
	}
	q := &IQ{
		entries:   make([]Entry, size),
		perThread: make([]int, threads),
		free:      make([]int, size),
		gen:       make([]uint32, size),
		ready:     make([]uint64, (size+63)/64),
	}
	for i := range q.free {
		q.free[i] = size - 1 - i
	}
	return q, nil
}

// Size returns the queue capacity.
func (q *IQ) Size() int { return len(q.entries) }

// Len returns the live entry count.
func (q *IQ) Len() int { return q.count }

// Free returns the number of free slots.
func (q *IQ) Free() int { return len(q.entries) - q.count }

// CountOf returns how many entries thread tid holds.
func (q *IQ) CountOf(tid int) int { return q.perThread[tid] }

// Stats returns the activity counters.
func (q *IQ) Stats() Stats { return q.stats }

// Tick accumulates occupancy statistics; call once per cycle.
func (q *IQ) Tick() {
	q.stats.OccupancySum += uint64(q.count)
	q.stats.Cycles++
}

// FastForward accumulates k cycles of occupancy statistics in one step —
// the closed form of k consecutive Tick calls with no intervening
// insert, issue or squash.
func (q *IQ) FastForward(k int64) {
	q.stats.OccupancySum += uint64(q.count) * uint64(k)
	q.stats.Cycles += uint64(k)
}

// HasReady reports whether any live entry has both operands available.
// While true, every cycle must be simulated: selection would issue the
// entry, or re-discover an FU or LSQ conflict (which is itself counted).
func (q *IQ) HasReady() bool {
	for _, w := range q.ready {
		if w != 0 {
			return true
		}
	}
	return false
}

func (q *IQ) setReady(i int) { q.ready[i>>6] |= 1 << (uint(i) & 63) }
func (q *IQ) clrReady(i int) { q.ready[i>>6] &^= 1 << (uint(i) & 63) }
func (q *IQ) addWaiter(phys int32, i int) {
	for int(phys) >= len(q.waiters) {
		q.waiters = append(q.waiters, nil)
	}
	q.waiters[phys] = append(q.waiters[phys], waiter{slot: int32(i), gen: q.gen[i]})
}

// Insert places an entry in a free slot, returning false when full. Slot
// choice is invisible to timing: selection is oldest-first by sequence
// number, never by slot index.
func (q *IQ) Insert(e Entry) bool {
	if len(q.free) == 0 {
		if q.count != len(q.entries) {
			panic("iq: count out of sync")
		}
		return false
	}
	i := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	e.Valid = true
	q.entries[i] = e
	q.count++
	q.perThread[e.H.Tid]++
	q.stats.Inserted++
	if e.Ready() {
		q.setReady(i)
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

// Wakeup broadcasts a completed physical register to its waiting entries.
func (q *IQ) Wakeup(phys int32) {
	if int(phys) >= len(q.waiters) {
		return
	}
	ws := q.waiters[phys]
	if len(ws) == 0 {
		return
	}
	for _, w := range ws {
		i := int(w.slot)
		e := &q.entries[i]
		if q.gen[i] != w.gen || !e.Valid {
			continue // slot recycled or squashed since registration
		}
		if e.Src[0] == phys {
			e.Rdy[0] = true
		}
		if e.Src[1] == phys {
			e.Rdy[1] = true
		}
		if e.Ready() {
			q.setReady(i)
		}
	}
	q.waiters[phys] = ws[:0]
}

// CollectReady appends the indices of all ready entries to buf, sorted
// oldest-first by sequence number, and returns it. The sort is a
// hand-rolled insertion sort: sequence numbers are unique so the result
// is the same permutation sort.Slice produced, without the per-call
// interface boxing that allocated on every cycle.
func (q *IQ) CollectReady(buf []int) []int {
	buf = buf[:0]
	for w, word := range q.ready {
		base := w << 6
		for word != 0 {
			buf = append(buf, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && q.entries[buf[j]].Seq < q.entries[buf[j-1]].Seq; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf
}

// Entry returns the slot at index i.
func (q *IQ) Entry(i int) *Entry { return &q.entries[i] }

// Remove frees slot i (after issue).
func (q *IQ) Remove(i int) {
	e := &q.entries[i]
	if !e.Valid {
		panic("iq: removing invalid entry")
	}
	q.perThread[e.H.Tid]--
	e.Valid = false
	q.count--
	q.gen[i]++
	q.clrReady(i)
	q.free = append(q.free, i)
	q.stats.Issued++
}

// SquashYounger removes all of tid's entries younger than seq and returns
// how many were dropped.
func (q *IQ) SquashYounger(tid int8, seq uint64) int {
	n := 0
	for i := range q.entries {
		e := &q.entries[i]
		if e.Valid && e.H.Tid == tid && e.Seq > seq {
			e.Valid = false
			q.count--
			q.perThread[tid]--
			q.gen[i]++
			q.clrReady(i)
			q.free = append(q.free, i)
			q.stats.Squashed++
			n++
		}
	}
	return n
}

// CheckInvariants validates the counters (tests only).
func (q *IQ) CheckInvariants() error {
	live := 0
	per := make([]int, len(q.perThread))
	for i := range q.entries {
		e := &q.entries[i]
		rdyBit := q.ready[i>>6]&(1<<(uint(i)&63)) != 0
		if e.Valid {
			live++
			per[e.H.Tid]++
			if rdyBit != e.Ready() {
				return fmt.Errorf("iq: slot %d ready bit %v but entry ready %v", i, rdyBit, e.Ready())
			}
		} else if rdyBit {
			return fmt.Errorf("iq: slot %d ready bit set but invalid", i)
		}
	}
	if live != q.count {
		return fmt.Errorf("iq: count=%d live=%d", q.count, live)
	}
	if len(q.free)+q.count != len(q.entries) {
		return fmt.Errorf("iq: %d free + %d live != %d slots", len(q.free), q.count, len(q.entries))
	}
	for _, i := range q.free {
		if q.entries[i].Valid {
			return fmt.Errorf("iq: slot %d on free list but valid", i)
		}
	}
	for t := range per {
		if per[t] != q.perThread[t] {
			return fmt.Errorf("iq: thread %d count=%d live=%d", t, q.perThread[t], per[t])
		}
	}
	return nil
}
