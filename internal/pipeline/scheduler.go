package pipeline

import (
	"math"

	"repro/internal/telemetry"
)

// This file is the skip-ahead engine: after each fully simulated cycle,
// advance asks every substrate for its next interesting cycle and, when
// the whole machine is provably idle until then, jumps the clock there
// in one step. "Provably idle" means the naive ticker would execute the
// intervening cycles as exact no-ops — nothing dispatches, issues,
// commits, fetches or fires — so their only effects are the per-cycle
// bookkeeping each substrate exposes in closed form (rob.FastForward,
// iq.FastForward, Policy.SkipCycles, telemetry.RecordIdleSpan) plus
// the pipeline's own round-robin offsets. The slowcheck differential
// harness and TestSkipAheadMatchesNaive hold the two engines to
// bit-identical results.

// advance moves c.now past the cycle stepCycle just simulated: to the
// next cycle when the machine is in motion, or straight to the next
// interesting cycle when it is provably idle, charging the skipped span
// in closed form. It returns true when the deadlock watchdog fires —
// on exactly the cycle the naive ticker would have reached it.
func (c *CPU) advance(maxCycles int64) bool {
	next := c.now + 1
	if c.skipAhead {
		if t := c.nextInterestingCycle(); t > next {
			if t > maxCycles {
				t = maxCycles
			}
			if t > next {
				c.work.skipSpans++
				c.skipTo(next, t)
				next = t
			}
		}
	}
	c.now = next
	return c.now >= maxCycles
}

// nextInterestingCycle returns the earliest cycle after c.now at which
// simulating could have any observable effect. Returning c.now+1 means
// the very next cycle must be simulated; any later value T asserts the
// cycles (c.now, T) are no-ops for every substrate:
//
//   - events: completions and miss-detects sit in the heap; the
//     earliest fire cycle bounds writeback activity.
//   - commit: an executed ring head commits next cycle.
//   - issue: a ready IQ entry either issues or re-counts an FU/LSQ
//     conflict every cycle, so any ready entry forces simulation.
//   - rob.TwoLevel: NextDue() is the earliest recheck of an undecided
//     miss record that is not blocked against the current rings. A
//     blocked recheck stays blocked while the rings are frozen, so it
//     is no wake-up; rob.FastForward rolls it past the span. A pending
//     grant retry with a free partition cannot outlive a Tick, but is
//     re-checked defensively.
//   - dispatch: a fetch-queue head that clears the front-end pipeline
//     at readyAt becomes dispatch-eligible then. A head that is already
//     eligible but did not dispatch was resource-blocked, and every
//     resource it can wait on is replenished only by events or commits
//     — both already wake points.
//   - fetch: a thread the policy admits (Policy.MayFetch is a pure
//     function of snapshots, which are frozen across an idle span)
//     wakes when its fetch stall expires; if it could fetch right now,
//     the next cycle must be simulated.
func (c *CPU) nextInterestingCycle() int64 {
	next := c.now + 1
	// The usual reasons to step the next cycle are checked first, the
	// cheapest first. Each check before the horizon only returns next, so
	// their order does not change the answer.
	if c.iq.HasReady() {
		return next // selection would issue or re-count a conflict
	}
	if c.events.len() > 0 && c.events.peekAt() <= next {
		return next // writeback has an event to handle
	}
	for t := range c.threads {
		if c.rob.Ring(t).HeadDone() {
			return next // a commit is pending
		}
	}
	if c.rob.PendingRetry() && c.rob.Owner() < 0 {
		return next // a grant retry could succeed (defensive)
	}

	horizon := int64(math.MaxInt64)
	if c.events.len() > 0 {
		horizon = c.events.peekAt()
	}
	// NextDue scans the undecided miss records, so it is asked only when
	// no event already pins the very next cycle.
	if horizon > next {
		if due := c.rob.NextDue(); due < horizon {
			horizon = due
		}
	}
	if horizon <= next {
		// An event fires or a miss evaluation comes due on the very next
		// cycle, so no skip is possible — the remaining checks could only
		// lower the horizon further or return next themselves. Bailing out
		// here keeps the snapshot rebuild and gate dry-runs off the dense
		// stretches (back-to-back completions) where they could not pay
		// off.
		return next
	}
	snapsFresh := false
	for t := range c.threads {
		th := &c.threads[t]
		if th.fq.len() > 0 {
			fe := th.fq.peek()
			if fe.readyAt <= c.now {
				// An eligible head dispatches next cycle unless a resource
				// blocks it. If it stays blocked, it stays blocked for the
				// whole span: every resource the gate checks — ROB slots
				// (commit), IQ slots (issue), physical registers
				// (writeback), LSQ slots (commit), second-level capacity
				// (grant) — is replenished only at wake points already
				// accounted for.
				if th.blockedAt == c.now && !c.capsDispatch {
					// This cycle's dispatch refused this very head, and
					// since then only dispatch and fetch ran, which take
					// resources and free none: the verdict still holds.
					continue
				}
				if !snapsFresh && c.capsDispatch {
					// The verdict must be dry-run against the snapshots the
					// next cycle's dispatch would see — rebuilt from this
					// cycle's post-issue, post-fetch state — not the
					// mid-cycle ones this cycle's dispatch judged: a
					// share-capped policy (DCRA) can admit next cycle a
					// head it refused this cycle purely because issue
					// drained the thread's queue occupancy after the
					// snapshot was taken. Rebuilding c.snaps here is safe
					// (it is scratch that every cycle rebuilds before its
					// consumers run), and skipTo relies on it staying fresh
					// for its cause recomputation.
					c.buildSnapshots()
					snapsFresh = true
				}
				if c.dispatchGate(t, th, fe) == telemetry.CauseNone {
					return next
				}
				continue
			}
			// A head that clears the front-end pipeline at readyAt becomes
			// dispatch-eligible then.
			if fe.readyAt < horizon {
				horizon = fe.readyAt
			}
		}
	}
	// Fetch wake-ups: only threads the policy admits can fetch during the
	// span (snapshots are frozen, so admission is too). Admission reads
	// only what writeback and commit change, so this cycle's snapshots and
	// any rebuilt above give the same answer.
	for tid := range c.threads {
		th := &c.threads[tid]
		if th.finished || th.flushWait || th.fq.len() >= c.cfg.FrontEndBuf {
			continue // unblocked only by events or dispatch drain
		}
		if !c.pol.MayFetch(&c.snaps[tid]) {
			continue
		}
		if th.fetchStalledUntil <= c.now {
			return next // could fetch immediately
		}
		if th.fetchStalledUntil < horizon {
			horizon = th.fetchStalledUntil
		}
	}
	if horizon < next {
		return next
	}
	return horizon
}

// skipTo charges the provably idle cycles [from, to) in closed form,
// advancing every piece of per-cycle state the naive ticker would have
// touched: the ROB manager's rotation/ownership accounting, IQ occupancy
// statistics, the policy's fetch rotor, the dispatch and commit
// round-robin offsets, and — when telemetry is on — the stall,
// occupancy and sample accounting, cause-by-cause.
func (c *CPU) skipTo(from, to int64) {
	k := to - from
	n := int64(c.cfg.Threads)
	c.rob.FastForward(to-1, k)
	c.iq.FastForward(k)
	c.pol.SkipCycles(k, c.cfg.Threads)
	c.dispatchRR = int((int64(c.dispatchRR) + k) % n)
	c.commitRR = int((int64(c.commitRR) + k) % n)
	if c.tel == nil {
		return
	}
	st := c.telState
	for t := range c.threads {
		th := &c.threads[t]
		st.ROBLen[t] = int32(c.rob.Ring(t).Len())
		switch {
		case th.fq.len() > 0 && th.fq.peek().readyAt <= c.now:
			// The head is dispatch-eligible but resource-blocked (or
			// nextInterestingCycle would have refused the skip). Re-run the
			// gate against the snapshots nextInterestingCycle just rebuilt
			// when the policy's cap reads them:
			// the naive ticker charges the span to next cycle's verdict,
			// which can name a different resource than this cycle's —
			// dispatch judged stale, pre-issue snapshots.
			st.Causes[t] = c.dispatchGate(t, th, th.fq.peek())
		case th.finished:
			st.Causes[t] = telemetry.CauseFinished
		default:
			st.Causes[t] = c.starvedCause(th)
		}
	}
	st.IQLen = int32(c.iq.Len())
	st.IntRegs = int32(c.rf.InFlight(false))
	st.FPRegs = int32(c.rf.InFlight(true))
	st.Owner = int8(c.rob.Owner())
	c.tel.RecordIdleSpan(from, to, st)
}
