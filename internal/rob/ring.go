// Package rob implements the paper's primary contribution: the two-level
// reorder buffer. It provides the per-thread ROB ring buffers, the
// low-complexity Degree-of-Dependence (DoD) counter (§4.1), the last-value
// DoD predictor (§4.2), and the four second-level allocation schemes
// evaluated in §5 (reactive, relaxed reactive, count-delayed reactive, and
// predictive).
package rob

import (
	"fmt"
	"math/bits"

	"repro/internal/uop"
)

// Ring is a per-thread ROB: a ring buffer of in-flight UOps in program
// order. Slots are stable physical positions (handles remain valid until
// the entry commits or is squashed). The physical capacity is the maximum
// the thread can ever hold (first level + the whole second level); the
// *effective* capacity at any moment is imposed by the TwoLevel manager.
//
// The ring also maintains the state behind the incremental DoD counter,
// one "result not yet valid" bit per physical slot, so ApproxDoD answers "how many
// unexecuted entries are younger than this load" with a popcount over
// the window's words instead of walking its entries, and HeadDone tells
// commit whether the head has executed without loading the entry.
// Execution and squash status must therefore be recorded through
// MarkExecuted and MarkSquashed rather than by writing the UOp fields
// directly.
type Ring struct {
	entries  []uop.UOp
	head     int32 // slot of the oldest entry
	count    int32
	capacity int32

	// unexecBit holds one bit per physical slot (bit slot&63 of word
	// slot>>6), set exactly for the live entries whose result is not yet
	// valid (neither executed nor squashed): set at push, cleared at
	// execute, squash and pop.
	unexecBit []uint64
	// indexWrites counts the DoD-index words written: a work count
	// outside Stats.
	indexWrites uint64
}

// NewRing allocates a ring with the given physical capacity.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic("rob: non-positive ring capacity")
	}
	return &Ring{
		entries:   make([]uop.UOp, capacity),
		capacity:  int32(capacity),
		unexecBit: make([]uint64, (capacity+63)/64),
	}
}

// Reset returns the ring to the state NewRing leaves: empty, every entry
// zeroed, no DoD-index bits and no counted writes.
func (r *Ring) Reset() {
	clear(r.entries)
	clear(r.unexecBit)
	r.head, r.count, r.indexWrites = 0, 0, 0
}

// Len returns the number of live entries.
func (r *Ring) Len() int { return int(r.count) }

// Cap returns the physical capacity.
func (r *Ring) Cap() int { return int(r.capacity) }

// IndexWrites returns how many DoD-index words the ring has written.
func (r *Ring) IndexWrites() uint64 { return r.indexWrites }

// setBit and clearBit write the bit of a physical slot.
func (r *Ring) setBit(slot int32) {
	r.unexecBit[slot>>6] |= 1 << uint(slot&63)
	r.indexWrites++
}

func (r *Ring) clearBit(slot int32) {
	r.unexecBit[slot>>6] &^= 1 << uint(slot&63)
	r.indexWrites++
}

// bitRange counts the set bits of physical slots [a, b] (a <= b): a
// masked popcount over the words the range touches.
func (r *Ring) bitRange(a, b int32) int32 {
	wa, wb := a>>6, b>>6
	lo := ^uint64(0) << uint(a&63)      // bits a&63.. of word wa
	hi := ^uint64(0) >> uint(63-(b&63)) // bits ..b&63 of word wb
	if wa == wb {
		return int32(bits.OnesCount64(r.unexecBit[wa] & lo & hi))
	}
	n := bits.OnesCount64(r.unexecBit[wa]&lo) + bits.OnesCount64(r.unexecBit[wb]&hi)
	for _, w := range r.unexecBit[wa+1 : wb] {
		n += bits.OnesCount64(w)
	}
	return int32(n)
}

// HeadDone reports whether the oldest entry's result is valid, reading
// only its bit: false when the ring is empty. A clear bit means executed
// or squashed; the pipeline pops every entry it squashes within the
// same walk, so a live head with a clear bit has executed.
func (r *Ring) HeadDone() bool {
	return r.count > 0 && r.unexecBit[r.head>>6]&(1<<uint(r.head&63)) == 0
}

// counted reports whether an entry contributes to the unexecuted count.
func counted(e *uop.UOp) bool { return !e.Executed && !e.Squashed }

// wrap reduces x into [0, capacity) given x < 2*capacity — every ring
// index expression satisfies that bound, and a compare-and-subtract is
// measurably cheaper than the integer division a % compiles to.
func (r *Ring) wrap(x int32) int32 {
	if x >= r.capacity {
		x -= r.capacity
	}
	return x
}

// Push appends a zeroed entry at the tail and returns (slot, pointer) for
// the caller to fill. It panics on physical overflow — effective-capacity
// checks belong to the caller.
func (r *Ring) Push() (int32, *uop.UOp) {
	if r.count == r.capacity {
		panic("rob: ring overflow")
	}
	slot := r.wrap(r.head + r.count)
	r.count++
	e := &r.entries[slot]
	*e = uop.UOp{}
	e.RobSlot = slot
	r.setBit(slot)
	return slot, e
}

// MarkExecuted sets the entry's "result valid" bit. Execution status must
// flow through here (not a direct field write) so the incremental DoD
// counter stays in sync with the window contents.
func (r *Ring) MarkExecuted(slot int32) {
	r.clearBit(slot)
	r.entries[slot].Executed = true
}

// MarkSquashed flags the entry as squashed; like MarkExecuted it keeps the
// incremental DoD counter consistent and must be used instead of writing
// the field. The entry itself stays live until popped.
func (r *Ring) MarkSquashed(slot int32) {
	r.clearBit(slot)
	r.entries[slot].Squashed = true
}

// Unexecuted returns the number of live entries whose result is not yet
// valid.
func (r *Ring) Unexecuted() int { return int(r.bitRange(0, r.capacity-1)) }

// UnexecutedYounger returns how many live not-yet-executed entries are
// strictly younger than the entry in slot, or 0 when the slot is dead.
// The load's own status does not matter: only the entries behind it are
// counted, exactly as the linear §4.1 walk does. Cost is one popcount
// per 64 slots of the range — at most capacity/64+1 words — versus the
// walk's one entry per slot.
func (r *Ring) UnexecutedYounger(slot int32) int {
	pos := r.PosOf(slot)
	if pos < 0 || int32(pos)+1 >= r.count {
		return 0
	}
	// Entries younger than slot occupy the circular physical range
	// (slot+1 .. tail), split at the wrap point.
	a := r.wrap(slot + 1)
	b := r.wrap(r.head + r.count - 1)
	if a <= b {
		return int(r.bitRange(a, b))
	}
	return int(r.bitRange(a, r.capacity-1) + r.bitRange(0, b))
}

// Head returns the oldest entry, or nil when empty.
func (r *Ring) Head() *uop.UOp {
	if r.count == 0 {
		return nil
	}
	return &r.entries[r.head]
}

// PopHead removes the oldest entry (commit).
func (r *Ring) PopHead() {
	if r.count == 0 {
		panic("rob: pop from empty ring")
	}
	r.clearBit(r.head)
	r.head = r.wrap(r.head + 1)
	r.count--
}

// Tail returns the youngest entry, or nil when empty.
func (r *Ring) Tail() *uop.UOp {
	if r.count == 0 {
		return nil
	}
	return &r.entries[r.wrap(r.head+r.count-1)]
}

// PopTail removes the youngest entry (squash walk).
func (r *Ring) PopTail() {
	if r.count == 0 {
		panic("rob: pop from empty ring")
	}
	r.clearBit(r.wrap(r.head + r.count - 1))
	r.count--
}

// At returns the entry in a slot. The caller must only pass live slots.
func (r *Ring) At(slot int32) *uop.UOp { return &r.entries[slot] }

// SlotAt returns the slot of the i-th entry from the head (0 = oldest).
func (r *Ring) SlotAt(i int) int32 {
	return r.wrap(r.head + int32(i))
}

// PosOf returns an entry's distance from the head (0 = oldest) or -1 if
// the slot is not live.
func (r *Ring) PosOf(slot int32) int {
	if r.count == 0 {
		return -1
	}
	pos := r.wrap(slot - r.head + r.capacity)
	if pos >= r.count {
		return -1
	}
	return int(pos)
}

// IsOldest reports whether slot holds the oldest live entry.
func (r *Ring) IsOldest(slot int32) bool {
	return r.count > 0 && slot == r.head
}

// CheckInvariants validates ring bookkeeping (tests only).
func (r *Ring) CheckInvariants() error {
	if r.count < 0 || r.count > r.capacity {
		return fmt.Errorf("rob: count %d out of range", r.count)
	}
	if r.head < 0 || r.head >= r.capacity {
		return fmt.Errorf("rob: head %d out of range", r.head)
	}
	unexec := int32(0)
	for i := 0; i < int(r.count); i++ {
		slot := r.SlotAt(i)
		e := &r.entries[slot]
		if e.RobSlot != slot {
			return fmt.Errorf("rob: entry %d has stale slot %d", slot, e.RobSlot)
		}
		if counted(e) {
			unexec++
			if got := r.bitRange(slot, slot); got != 1 {
				return fmt.Errorf("rob: slot %d unexecuted but its bit is %d", slot, got)
			}
		} else if got := r.bitRange(slot, slot); got != 0 {
			return fmt.Errorf("rob: slot %d executed/squashed but its bit is %d", slot, got)
		}
	}
	if total := r.bitRange(0, r.capacity-1); total != unexec {
		return fmt.Errorf("rob: %d bits set but %d live unexecuted entries", total, unexec)
	}
	return nil
}
