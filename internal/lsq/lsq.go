// Package lsq models the private per-thread load/store queues (Table 1:
// 48 entries per thread). The LSQ keeps memory operations in program
// order, blocks a load while an older same-address store is unexecuted,
// forwards store data to younger loads, and releases stores to the cache
// hierarchy at commit.
package lsq

import (
	"fmt"
	"math"
)

// Entry is one LSQ slot.
type Entry struct {
	RobSlot  int32
	Seq      uint64
	IsStore  bool
	Addr     uint64 // 8-byte aligned effective address
	Executed bool
	valid    bool
}

// storeBuckets is the number of address buckets the per-thread live
// store counts are kept in.
const storeBuckets = 64

// bucket maps an 8-byte-aligned address to its store-count bucket.
func bucket(addr uint64) uint64 { return (addr >> 3) % storeBuckets }

// ring is one thread's queue. stores[b] counts the live stores whose
// address falls in bucket b: a load whose bucket holds none has no
// same-address store to wait on or forward from, and LoadCheck answers
// it without walking the queue.
type ring struct {
	entries []Entry
	head    int32
	count   int32
	stores  [storeBuckets]uint16
}

// LSQ is the set of per-thread load/store queues.
type LSQ struct {
	rings []ring
	size  int32
	stats Stats
	// inspected counts the entries LoadCheck walks read: a work count,
	// kept out of Stats so it can change without changing any Result.
	inspected uint64
}

// Stats counts LSQ activity.
type Stats struct {
	Inserted  uint64
	Forwarded uint64
	Blocked   uint64 // load-issue attempts blocked by an older store
}

// New builds queues for the given thread count and per-thread size.
func New(threads, size int) (*LSQ, error) {
	if threads < 1 || size < 1 || size > math.MaxUint16 {
		return nil, fmt.Errorf("lsq: bad geometry threads=%d size=%d", threads, size)
	}
	l := &LSQ{rings: make([]ring, threads), size: int32(size)}
	for i := range l.rings {
		l.rings[i].entries = make([]Entry, size)
	}
	return l, nil
}

// Size returns the per-thread capacity.
func (l *LSQ) Size() int { return int(l.size) }

// Count returns thread tid's occupancy.
func (l *LSQ) Count(tid int) int { return int(l.rings[tid].count) }

// CanInsert reports whether tid has a free slot.
func (l *LSQ) CanInsert(tid int) bool { return l.rings[tid].count < l.size }

// Stats returns the activity counters.
func (l *LSQ) Stats() Stats { return l.stats }

// Inspected returns how many queue entries LoadCheck has read.
func (l *LSQ) Inspected() uint64 { return l.inspected }

// Insert appends a memory op at the tail and returns its slot.
func (l *LSQ) Insert(tid int, robSlot int32, seq uint64, isStore bool, addr uint64) int32 {
	r := &l.rings[tid]
	if r.count == l.size {
		panic("lsq: overflow")
	}
	slot := l.wrap(r.head + r.count)
	r.entries[slot] = Entry{
		RobSlot: robSlot,
		Seq:     seq,
		IsStore: isStore,
		Addr:    addr &^ 7,
		valid:   true,
	}
	if isStore {
		r.stores[bucket(addr)]++
	}
	r.count++
	l.stats.Inserted++
	return slot
}

// wrap reduces x into [0, size) given x < 2*size, every ring index
// expression's bound, with a compare instead of a division.
func (l *LSQ) wrap(x int32) int32 {
	if x >= l.size {
		x -= l.size
	}
	return x
}

// drop clears a departing entry and takes it out of its store bucket.
func (r *ring) drop(e *Entry) {
	e.valid = false
	if e.IsStore {
		r.stores[bucket(e.Addr)]--
	}
}

// MarkExecuted records that the op in (tid, slot) finished executing
// (store: address and data available; load: data returned).
func (l *LSQ) MarkExecuted(tid int, slot int32) {
	e := &l.rings[tid].entries[slot]
	if !e.valid {
		panic("lsq: marking invalid entry")
	}
	e.Executed = true
}

// LoadCheck inspects the older stores for the load in (tid, slot):
// blocked means an older same-address store has not executed yet (the load
// must not issue); forward means the youngest older same-address store has
// executed and its data can be forwarded.
func (l *LSQ) LoadCheck(tid int, slot int32) (blocked, forward bool) {
	r := &l.rings[tid]
	addr := r.entries[slot].Addr
	if r.stores[bucket(addr)] == 0 {
		return false, false
	}
	// Walk from the entry just older than the load back to the head; the
	// first same-address store decides.
	for i := l.wrap(slot - r.head + l.size); i > 0; i-- {
		if slot == 0 {
			slot = l.size
		}
		slot--
		s := &r.entries[slot]
		l.inspected++
		if !s.IsStore || s.Addr != addr {
			continue
		}
		if s.Executed {
			l.stats.Forwarded++
			return false, true
		}
		l.stats.Blocked++
		return true, false
	}
	return false, false
}

// Head returns the oldest entry for tid, or nil.
func (l *LSQ) Head(tid int) *Entry {
	r := &l.rings[tid]
	if r.count == 0 {
		return nil
	}
	return &r.entries[r.head]
}

// PopHead removes the oldest entry (commit of a memory op).
func (l *LSQ) PopHead(tid int) {
	r := &l.rings[tid]
	if r.count == 0 {
		panic("lsq: pop from empty queue")
	}
	r.drop(&r.entries[r.head])
	r.head = l.wrap(r.head + 1)
	r.count--
}

// PopTail removes the youngest entry during a squash walk; seq must match
// the entry being squashed (consistency check).
func (l *LSQ) PopTail(tid int, seq uint64) {
	r := &l.rings[tid]
	if r.count == 0 {
		panic("lsq: squash pop from empty queue")
	}
	tail := &r.entries[l.wrap(r.head+r.count-1)]
	if tail.Seq != seq {
		panic(fmt.Sprintf("lsq: squash order violation: tail seq %d, want %d", tail.Seq, seq))
	}
	r.drop(tail)
	r.count--
}

// CheckInvariants verifies per-thread ordering (tests only).
func (l *LSQ) CheckInvariants() error {
	for t := range l.rings {
		r := &l.rings[t]
		var prev uint64
		var stores [storeBuckets]uint16
		for i := int32(0); i < r.count; i++ {
			e := &r.entries[(r.head+i)%l.size]
			if !e.valid {
				return fmt.Errorf("lsq: thread %d has invalid live entry", t)
			}
			if i > 0 && e.Seq <= prev {
				return fmt.Errorf("lsq: thread %d out of order at %d", t, i)
			}
			prev = e.Seq
			if e.IsStore {
				stores[bucket(e.Addr)]++
			}
		}
		if stores != r.stores {
			return fmt.Errorf("lsq: thread %d store buckets %v, live stores give %v", t, r.stores, stores)
		}
	}
	return nil
}
