package pipeline

import (
	"fmt"

	"repro/internal/uop"
)

// CheckInvariants cross-validates the pipeline's structures mid-run. It is
// O(machine state) and intended for tests (stress runs call it every few
// hundred cycles), not for the simulation loop.
func (c *CPU) CheckInvariants() error {
	if err := c.iq.CheckInvariants(); err != nil {
		return err
	}
	if err := c.lsq.CheckInvariants(); err != nil {
		return err
	}
	if err := c.rf.CheckInvariants(); err != nil {
		return err
	}
	if c.early != nil {
		if err := c.early.CheckInvariants(); err != nil {
			return err
		}
	}

	perThreadIQ := make([]int, c.cfg.Threads)
	for tid := 0; tid < c.cfg.Threads; tid++ {
		th := &c.threads[tid]
		ring := c.rob.Ring(tid)
		if err := ring.CheckInvariants(); err != nil {
			return err
		}
		if ring.Len() > c.rob.Capacity(tid) && c.rob.Config().Scheme != 0 {
			// Capacity may legally shrink below occupancy right after a
			// release; dispatch is what respects CanDispatch. Only flag
			// physical overflow.
			if ring.Len() > ring.Cap() {
				return fmt.Errorf("thread %d: ROB %d over physical capacity %d", tid, ring.Len(), ring.Cap())
			}
		}

		var prevSeq uint64
		memOps := 0
		for i := 0; i < ring.Len(); i++ {
			u := ring.At(ring.SlotAt(i))
			if i > 0 && u.Seq <= prevSeq {
				return fmt.Errorf("thread %d: ROB out of program order at %d", tid, i)
			}
			prevSeq = u.Seq
			if u.Squashed {
				return fmt.Errorf("thread %d: squashed entry still live (seq %d)", tid, u.Seq)
			}
			if int(u.Tid) != tid {
				return fmt.Errorf("thread %d: foreign entry (tid %d)", tid, u.Tid)
			}
			// With early release, an executed entry's dest can be
			// legally freed and recycled before commit (its value is
			// provably dead), so the readiness check only applies to the
			// plain configuration.
			if u.DestPhys != uop.NoReg && c.early == nil && u.Executed && !c.rf.Ready(u.DestPhys) {
				return fmt.Errorf("thread %d: executed seq %d has unready dest", tid, u.Seq)
			}
			if u.IsMem() {
				memOps++
				if u.LsqSlot < 0 {
					return fmt.Errorf("thread %d: memory op seq %d without LSQ slot", tid, u.Seq)
				}
			}
			if u.Executed && !u.Issued {
				return fmt.Errorf("thread %d: seq %d executed without issuing", tid, u.Seq)
			}
		}
		if memOps != c.lsq.Count(tid) {
			return fmt.Errorf("thread %d: %d memory ops in ROB but %d LSQ entries",
				tid, memOps, c.lsq.Count(tid))
		}
		if th.pendingDMiss < 0 || th.pendingL2Miss < 0 {
			return fmt.Errorf("thread %d: negative miss counters %d/%d",
				tid, th.pendingDMiss, th.pendingL2Miss)
		}
		perThreadIQ[tid] = c.iq.CountOf(tid)
	}

	// Every IQ entry must reference a live, unissued ROB entry.
	total := 0
	for i := 0; i < c.iq.Size(); i++ {
		e := c.iq.Entry(i)
		if !e.Valid {
			continue
		}
		total++
		ring := c.rob.Ring(int(e.H.Tid))
		if ring.PosOf(e.H.Slot) < 0 {
			return fmt.Errorf("IQ entry references dead ROB slot (tid %d slot %d)", e.H.Tid, e.H.Slot)
		}
		u := ring.At(e.H.Slot)
		if u.Seq != e.Seq {
			return fmt.Errorf("IQ entry stale: seq %d vs ROB %d", e.Seq, u.Seq)
		}
		if u.Issued {
			return fmt.Errorf("issued uop seq %d still in IQ", u.Seq)
		}
	}
	if total != c.iq.Len() {
		return fmt.Errorf("IQ count mismatch: %d valid vs %d", total, c.iq.Len())
	}
	return nil
}
