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

// IQ is the shared issue queue. The hardware CAM broadcast is modelled in
// RAM terms: each not-ready source links a waiter node into the list of
// the physical register it waits on, so Wakeup touches exactly the
// waiting entries instead of scanning every slot, and a ready bitmap lets
// CollectReady enumerate only the slots whose operands have all arrived.
//
// The waiter nodes are intrusive and fixed: slot i owns nodes 2i and
// 2i+1, one per source operand. A node is linked exactly while its entry
// is valid and waits on that source (a second source naming the same
// register as the first shares the first's node): Wakeup empties the
// register's list, and a squash unlinks the nodes of the entries it
// drops. Wakeup sets ready bits only, so the order it visits a list in
// does not matter.
type IQ struct {
	entries   []Entry
	count     int
	perThread []int
	free      []int    // stack of free slot indices (O(1) insert)
	ready     []uint64 // bitmap: valid && both sources ready
	heads     []int32  // per physical register: first waiter node or -1, grown on demand
	next      []int32  // per waiter node: next node on its register's list, or -1
	prev      []int32  // per waiter node: previous node, or -1 at the head
	stats     Stats

	// Work counts for the pipeline's work ledger; not statistics of the
	// modelled machine, so they stay out of Stats.
	compares uint64 // sequence-number comparisons in CollectReady's sort
	visits   uint64 // waiter nodes Wakeup visited
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
		ready:     make([]uint64, (size+63)/64),
		next:      make([]int32, 2*size),
		prev:      make([]int32, 2*size),
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

// Compares returns how many sequence-number comparisons CollectReady
// has made.
func (q *IQ) Compares() uint64 { return q.compares }

// WaiterVisits returns how many waiter nodes Wakeup has visited.
func (q *IQ) WaiterVisits() uint64 { return q.visits }

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

// link puts slot i's waiter node for source k at the head of the list of
// the register that source names.
func (q *IQ) link(i, k int) {
	phys := q.entries[i].Src[k]
	for int(phys) >= len(q.heads) {
		q.heads = append(q.heads, -1)
	}
	n := int32(2*i + k)
	h := q.heads[phys]
	q.next[n], q.prev[n] = h, -1
	if h >= 0 {
		q.prev[h] = n
	}
	q.heads[phys] = n
}

// unlinkWaiters takes valid slot i's linked waiter nodes off their lists
// (a squash drops entries that may still wait).
func (q *IQ) unlinkWaiters(i int) {
	e := &q.entries[i]
	for k := range e.Src {
		if e.Rdy[k] || (k == 1 && e.Src[1] == e.Src[0]) {
			continue // no node linked for this source
		}
		n := int32(2*i + k)
		nx, pv := q.next[n], q.prev[n]
		if pv < 0 {
			q.heads[e.Src[k]] = nx
		} else {
			q.next[pv] = nx
		}
		if nx >= 0 {
			q.prev[nx] = pv
		}
	}
}

// Insert fills a free slot with an entry for u — its handle, sequence
// number, operation and physical sources, read in place — where rdy
// marks the sources already available. It returns false when the queue
// is full. Slot choice is invisible to timing: selection is oldest-first
// by sequence number, never by slot index.
func (q *IQ) Insert(u *uop.UOp, rdy [2]bool) bool {
	if len(q.free) == 0 {
		if q.count != len(q.entries) {
			panic("iq: count out of sync")
		}
		return false
	}
	i := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	e := &q.entries[i]
	e.H = uop.Handle{Tid: u.Tid, Slot: u.RobSlot}
	e.Seq, e.Op, e.Src, e.Rdy, e.Valid = u.Seq, u.Op, u.SrcPhys, rdy, true
	q.count++
	q.perThread[u.Tid]++
	q.stats.Inserted++
	if rdy[0] && rdy[1] {
		q.setReady(i)
	} else {
		if !rdy[0] {
			q.link(i, 0)
		}
		if !rdy[1] && e.Src[1] != e.Src[0] {
			q.link(i, 1)
		}
	}
	return true
}

// Wakeup broadcasts a completed physical register to its waiting entries.
func (q *IQ) Wakeup(phys int32) {
	if int(phys) >= len(q.heads) {
		return
	}
	visits := 0
	for n := q.heads[phys]; n >= 0; n = q.next[n] {
		visits++
		i := int(n >> 1)
		e := &q.entries[i]
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
	q.heads[phys] = -1
	q.visits += uint64(visits)
}

// CollectReady appends the indices of all ready entries to buf, sorted
// oldest-first by sequence number, and returns it. The sort is a
// hand-rolled insertion sort that holds the entry being placed and
// shifts the younger ones up: sequence numbers are unique so the result
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
	compares := 0
	for i := 1; i < len(buf); i++ {
		x := buf[i]
		seq := q.entries[x].Seq
		j := i
		for ; j > 0; j-- {
			compares++
			if q.entries[buf[j-1]].Seq < seq {
				break
			}
			buf[j] = buf[j-1]
		}
		buf[j] = x
	}
	q.compares += uint64(compares)
	return buf
}

// Entry returns the slot at index i.
func (q *IQ) Entry(i int) *Entry { return &q.entries[i] }

// Remove frees slot i after issue. Only a ready entry issues, and a
// ready entry has no waiter node linked.
func (q *IQ) Remove(i int) {
	e := &q.entries[i]
	if !e.Valid || !e.Ready() {
		panic("iq: removing an invalid or unready entry")
	}
	q.perThread[e.H.Tid]--
	e.Valid = false
	q.count--
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
			q.unlinkWaiters(i)
			e.Valid = false
			q.count--
			q.perThread[tid]--
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
	// Every linked waiter node belongs to a valid entry waiting on the
	// list's register, and every waiting source has its node linked.
	waiting := 0
	for i := range q.entries {
		e := &q.entries[i]
		for k := range e.Src {
			if e.Valid && !e.Rdy[k] && (k == 0 || e.Src[1] != e.Src[0]) {
				waiting++
			}
		}
	}
	linked := 0
	for phys, n := range q.heads {
		for pv := int32(-1); n >= 0; pv, n = n, q.next[n] {
			e := &q.entries[n>>1]
			if q.prev[n] != pv || !e.Valid || e.Rdy[n&1] || e.Src[n&1] != int32(phys) {
				return fmt.Errorf("iq: waiter node %d on register %d's list is stale or mislinked", n, phys)
			}
			if linked++; linked > waiting {
				return fmt.Errorf("iq: more linked waiter nodes than waiting sources (%d)", waiting)
			}
		}
	}
	if linked != waiting {
		return fmt.Errorf("iq: %d waiter nodes linked, %d sources waiting", linked, waiting)
	}
	return nil
}
