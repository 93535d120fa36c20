package pipeline

import (
	"fmt"

	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/rob"
	"repro/internal/telemetry"
	"repro/internal/uop"
)

// ---- front-end queue: a fixed ring of FrontEndBuf entries ----

// feQueue holds one thread's fetched, not yet dispatched instructions in
// a ring allocated once by newFeQueue. Fetch never pushes past the
// front-end buffer size, so the ring never grows.
type feQueue struct {
	buf  []feEntry
	head int // index of the oldest entry
	n    int // live entries
}

func newFeQueue(capacity int) feQueue { return feQueue{buf: make([]feEntry, capacity)} }

func (q *feQueue) len() int { return q.n }

// wrap maps head+i, for i < 2*len(buf), to a ring index.
func (q *feQueue) wrap(i int) int {
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

//tlrob:allocfree
func (q *feQueue) push(e feEntry) {
	if q.n == len(q.buf) {
		panic("pipeline: front-end queue overflow")
	}
	q.buf[q.wrap(q.head+q.n)] = e
	q.n++
}

func (q *feQueue) peek() *feEntry { return &q.buf[q.head] }

//tlrob:allocfree
func (q *feQueue) pop() feEntry {
	e := q.buf[q.head]
	q.head = q.wrap(q.head + 1)
	q.n--
	return e
}

func (q *feQueue) clear() {
	q.head = 0
	q.n = 0
}

// at returns the i-th live entry, oldest first.
func (q *feQueue) at(i int) *feEntry { return &q.buf[q.wrap(q.head+i)] }

// ---- replay queue ----

// replayQueue holds real-path instructions awaiting re-fetch after a
// squash or I-cache stall. It is a slice-as-deque with a head index so
// popFront and the common pushFront (re-queueing the instruction just
// popped) are O(1) and allocation-free in steady state — the seed's
// `append([]isa.TraceInst{inst}, replay...)` prepend allocated a fresh
// slice on every replayed instruction.
type replayQueue struct {
	buf  []isa.TraceInst
	head int
}

func (q *replayQueue) len() int { return len(q.buf) - q.head }

func (q *replayQueue) popFront(out *isa.TraceInst) {
	*out = q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// pushFront re-queues one instruction at the head. When the head slot was
// vacated by a popFront this is a store; otherwise (a trace-fresh
// instruction hitting an I-cache stall with an empty queue) the buffer
// shifts right, which amortizes to nothing once its capacity has grown.
func (q *replayQueue) pushFront(inst isa.TraceInst) {
	if q.head > 0 {
		q.head--
		q.buf[q.head] = inst
		return
	}
	q.buf = append(q.buf, isa.TraceInst{})
	copy(q.buf[1:], q.buf)
	q.buf[0] = inst
}

// replace swaps in a rebuilt backing array (program order, head 0) and
// returns the old one for reuse as the next rebuild's scratch.
func (q *replayQueue) replace(buf []isa.TraceInst) []isa.TraceInst {
	old := q.buf[:0]
	q.buf = buf
	q.head = 0
	return old
}

// pending returns the queued instructions oldest-first (read-only use).
func (q *replayQueue) pending() []isa.TraceInst { return q.buf[q.head:] }

// ---- fetch ----

const wrongPathPCBase = 0xffff_0000_0000_0000

// wpInst synthesizes one wrong-path instruction: integer ALU work that
// consumes front-end, rename, IQ and FU bandwidth until the mispredicted
// branch resolves. Wrong-path memory ops are not modelled (DESIGN.md §5).
func (th *thread) wpInst() isa.TraceInst {
	th.wpCounter++
	d := int8(1 + th.wpCounter%28)
	s := int8(1 + (th.wpCounter*7)%28)
	return isa.TraceInst{
		PC:   wrongPathPCBase + th.wpCounter*4,
		Op:   isa.OpIntAlu,
		Dest: d,
		Src1: s,
		Src2: 0,
	}
}

// nextInst returns the next correct-path instruction, draining the replay
// queue (instructions squashed by FLUSH) before advancing the trace.
func (c *CPU) nextInst(th *thread, out *isa.TraceInst) {
	if th.replay.len() > 0 {
		th.replay.popFront(out)
		if th.replay.len() == 0 {
			th.squashRefill = false
		}
		return
	}
	th.src.Next(out)
}

func (c *CPU) fetch() {
	c.order = c.pol.FetchOrder(c.snaps, c.order)
	budget := c.cfg.FetchWidth
	threadsUsed := 0
	for _, tid := range c.order {
		if budget <= 0 || threadsUsed >= c.cfg.FetchThreads {
			break
		}
		th := &c.threads[tid]
		if th.finished || th.flushWait || th.fetchStalledUntil > c.now {
			continue
		}
		if th.fq.len() >= c.cfg.FrontEndBuf {
			continue
		}
		n := c.fetchThread(tid, th, budget)
		if n > 0 {
			budget -= n
			threadsUsed++
		}
	}
}

// fetchThread fetches up to limit instructions for one thread and returns
// how many were fetched.
func (c *CPU) fetchThread(tid int, th *thread, limit int) int {
	count := 0
	readyAt := c.now + int64(c.cfg.FrontEndDepth)
	checkedICache := false
	for count < limit && th.fq.len() < c.cfg.FrontEndBuf {
		if th.wrongPath {
			th.fq.push(feEntry{inst: th.wpInst(), readyAt: readyAt, wrongPath: true})
			count++
			continue
		}
		inst := &th.instScratch
		c.nextInst(th, inst)
		if !checkedICache {
			// One I-cache probe per fetch block; a miss stalls the thread.
			res := c.hier.Fetch(inst.PC, c.now)
			checkedICache = true
			if res.L1Miss {
				th.fetchStalledUntil = res.ReadyAt
				// The instruction is not lost: replay it when fetch resumes.
				th.replay.pushFront(*inst)
				break
			}
		}
		e := feEntry{inst: *inst, readyAt: readyAt}
		if inst.Op == isa.OpBranch {
			hist := c.gshare.Hist(tid)
			pred := c.gshare.Predict(inst.PC, hist)
			e.isBranch = true
			e.hist = hist
			e.predTaken = pred
			c.gshare.PushHist(tid, pred)
			th.fq.push(e)
			th.fetched++
			c.stats.Fetched[tid]++
			count++
			if pred != inst.Taken {
				// Mispredicted: subsequent fetch runs down the wrong path
				// until the branch resolves and squashes it.
				th.mispredPending = true
				th.wrongPath = true
			}
			if pred {
				// Fetch block ends at a predicted-taken branch; a BTB miss
				// leaves the target unknown until decode computes it, so
				// fetch resumes after the configured redirect bubble.
				if _, ok := c.btb.Lookup(inst.PC); !ok {
					th.fetchStalledUntil = c.now + int64(c.cfg.BTBMissBubble)
				}
				break
			}
			continue
		}
		th.fq.push(e)
		th.fetched++
		c.stats.Fetched[tid]++
		count++
	}
	return count
}

// ---- dispatch ----

//tlrob:allocfree
func (c *CPU) dispatch() {
	budget := c.cfg.DispatchWidth
	n := c.cfg.Threads
	tid := c.dispatchRR
	// telState is always present, so the per-thread outcome is recorded
	// unconditionally; only telemetry reads it.
	st := c.telState
	for i := 0; i < n && budget > 0; i++ {
		if i > 0 {
			tid++
			if tid == n {
				tid = 0
			}
		}
		th := &c.threads[tid]
		for budget > 0 && th.fq.len() > 0 {
			fe := th.fq.peek()
			if fe.readyAt > c.now {
				break
			}
			if cause := c.dispatchOne(tid, th, fe); cause != telemetry.CauseNone {
				// In-order dispatch: head-of-line blocks the thread; the
				// cycle is charged to the first blocking resource.
				if st.Dispatched[tid] == 0 {
					st.Causes[tid] = cause
				}
				break
			}
			th.fq.pop()
			budget--
			st.Dispatched[tid]++
		}
	}
	c.dispatchRR++
	if c.dispatchRR == n {
		c.dispatchRR = 0
	}
}

// robStallCause classifies a CanDispatch refusal: a thread capped at its
// first level while an L2 miss is outstanding and the second level is
// held elsewhere (or not yet granted) is waiting on a grant — the cycles
// the two-level schemes exist to reclaim; every other refusal is plain
// ROB pressure.
//
//tlrob:allocfree
func (c *CPU) robStallCause(tid int, th *thread) telemetry.Cause {
	s := c.cfg.ROB.Scheme
	if s != rob.Baseline && s != rob.SharedSingle &&
		c.rob.Owner() != tid && th.pendingL2Miss > 0 {
		return telemetry.CauseL2GrantWait
	}
	return telemetry.CauseROBFull
}

// dispatchGate is the pure admission check of dispatchOne: it returns
// CauseNone when the instruction could rename and insert right now, or
// the first blocking resource otherwise, without mutating anything. The
// skip-ahead engine dry-runs it (against freshly rebuilt snapshots) to
// decide whether the next cycle would dispatch, and to charge blocked
// spans to the same cause the naive ticker would record.
//
//tlrob:allocfree
func (c *CPU) dispatchGate(tid int, th *thread, fe *feEntry) telemetry.Cause {
	inst := &fe.inst
	if !c.rob.CanDispatch(tid) {
		return c.robStallCause(tid, th)
	}
	if c.iq.Free() == 0 || !c.pol.MayDispatchIQ(tid, c.snaps) {
		return telemetry.CauseIQFull
	}
	// A thread dispatching beyond its private first level (the
	// second-level owner) must leave issue-queue headroom for the other
	// threads, exactly like the rename-register reserve below: the grant
	// is not a licence to starve co-runners of dispatch slots.
	if c.iq.Free() <= 2*c.cfg.Threads && c.rob.Ring(tid).Len() >= c.cfg.ROB.L1Size {
		return telemetry.CauseIQFull
	}
	if inst.Op.IsMem() && !c.lsq.CanInsert(tid) {
		return telemetry.CauseLSQFull
	}
	if inst.HasDest() {
		free := c.rf.FreeCount(isa.IsFPReg(int(inst.Dest)))
		if free == 0 {
			return telemetry.CauseRegFile
		}
		// A thread dispatching beyond its private first level (the
		// second-level owner) must leave renaming headroom for the other
		// threads; without the reserve a 416-deep window empties the
		// rename pools and starves everyone else at dispatch.
		if free <= 8*c.cfg.Threads && c.rob.Ring(tid).Len() >= c.cfg.ROB.L1Size {
			return telemetry.CauseRegFile
		}
	}
	return telemetry.CauseNone
}

// dispatchOne renames and inserts one instruction. It returns CauseNone
// on success; any other cause means that resource was unavailable and
// the thread must stall this cycle.
//
//tlrob:allocfree
func (c *CPU) dispatchOne(tid int, th *thread, fe *feEntry) telemetry.Cause {
	if cause := c.dispatchGate(tid, th, fe); cause != telemetry.CauseNone {
		return cause
	}
	inst := &fe.inst
	isMem := inst.Op.IsMem()

	slot, u := c.rob.Ring(tid).Push()
	u.PC = inst.PC
	u.Addr = inst.Addr
	u.Op = inst.Op
	u.Tid = int8(tid)
	u.Seq = c.seqNext
	c.seqNext++
	u.DestArch = inst.Dest
	u.SrcArch = [2]int8{inst.Src1, inst.Src2}
	u.Taken = inst.Taken
	u.PredTaken = fe.predTaken
	u.Hist = fe.hist
	u.FetchedAt = fe.readyAt - int64(c.cfg.FrontEndDepth)
	u.WrongPath = fe.wrongPath
	u.LsqSlot = -1
	u.DestPhys = uop.NoReg
	u.OldPhys = uop.NoReg

	for k, a := range u.SrcArch {
		if a == isa.RegNone {
			u.SrcPhys[k] = uop.NoReg
		} else {
			u.SrcPhys[k] = c.rf.Lookup(tid, int(a))
		}
	}
	if inst.HasDest() {
		newP, oldP, ok := c.rf.Allocate(tid, int(inst.Dest))
		if !ok {
			panic("pipeline: register allocation failed after availability check")
		}
		u.DestPhys, u.OldPhys = newP, oldP
		if isa.IsFPReg(int(inst.Dest)) {
			th.fpRegs++
			c.snaps[tid].FPRegs++
		} else {
			th.intRegs++
			c.snaps[tid].IntRegs++
		}
	}
	if isMem {
		u.LsqSlot = c.lsq.Insert(tid, slot, u.Seq, inst.Op == isa.OpStore, inst.Addr)
	}
	if inst.Op == isa.OpBranch && u.PredTaken != u.Taken {
		u.Mispred = true
	}

	e := iq.Entry{H: uop.Handle{Tid: int8(tid), Slot: slot}, Seq: u.Seq, Op: u.Op, Src: u.SrcPhys}
	for k, s := range u.SrcPhys {
		e.Rdy[k] = s == uop.NoReg || c.rf.Ready(s)
	}
	if !c.iq.Insert(e) {
		panic("pipeline: IQ insert failed after availability check")
	}
	c.snaps[tid].IQ++
	if fe.wrongPath {
		c.stats.WrongPathDispatched++
	}
	if c.early != nil {
		for _, s := range u.SrcPhys {
			c.early.OnDispatchRead(s)
		}
		if u.Op == isa.OpBranch {
			c.early.OnBranchDispatched(tid)
		}
		if u.DestPhys != uop.NoReg && !u.WrongPath {
			c.early.OnOverwriterDispatched(tid, u.Seq, u.OldPhys)
		}
	}
	return telemetry.CauseNone
}

// ---- issue ----

//tlrob:allocfree
func (c *CPU) issue() {
	c.readyBuf = c.iq.CollectReady(c.readyBuf)
	issued := 0
	for _, idx := range c.readyBuf {
		if issued >= c.cfg.IssueWidth {
			break
		}
		e := c.iq.Entry(idx)
		tid := int(e.H.Tid)
		u := c.rob.Ring(tid).At(e.H.Slot)
		var forward bool
		if u.Op == isa.OpLoad {
			blocked, fwd := c.lsq.LoadCheck(tid, u.LsqSlot)
			if blocked {
				continue // older same-address store still pending
			}
			forward = fwd
		}
		if !c.fus.TryIssue(u.Op, c.now) {
			continue
		}
		c.iq.Remove(idx)
		u.Issued = true
		u.IssuedAt = c.now
		if c.early != nil {
			for _, s := range u.SrcPhys {
				c.early.OnIssueRead(s)
			}
		}
		completeAt := c.execLatency(tid, u, forward)
		c.events.push(event{at: completeAt, seq: u.Seq, slot: u.RobSlot, tid: e.H.Tid, kind: evComplete})
		issued++
	}
}

// execLatency models execution timing and initiates memory accesses.
func (c *CPU) execLatency(tid int, u *uop.UOp, forward bool) int64 {
	lat := int64(isa.Timings[u.Op].Latency)
	if u.Op != isa.OpLoad {
		return c.now + lat
	}
	if forward {
		u.Forwarded = true
		return c.now + lat
	}
	res := c.hier.Load(u.Addr, c.now)
	u.L1Miss = res.L1Miss
	u.L2Miss = res.L2Miss
	base := c.now + lat
	if res.ReadyAt > base {
		base = res.ReadyAt
	}
	c.stats.Loads[tid]++
	if res.L1Miss {
		c.stats.LoadL1Miss[tid]++
	}
	if res.L2Miss {
		c.stats.LoadL2Miss[tid]++
	}
	c.stats.LoadLatencySum[tid] += uint64(base - c.now)
	pred := c.loadHit.Predict(tid, u.PC)
	u.LoadHitPred = pred
	c.loadHit.Update(tid, u.PC, !res.L1Miss, pred)
	if pred && res.L1Miss {
		// Consumers were speculatively scheduled against a hit and must
		// replay; the cost is modelled as added load latency.
		base += int64(c.cfg.ReplayPenalty)
	}
	if res.L1Miss {
		c.threads[tid].pendingDMiss++
	}
	if res.L2Miss {
		c.events.push(event{
			at:   c.now + int64(c.cfg.MissDetectDelay),
			seq:  u.Seq,
			slot: u.RobSlot,
			tid:  int8(tid),
			kind: evMissDetect,
		})
	}
	return base
}

// ---- writeback ----

//tlrob:allocfree
func (c *CPU) writeback() {
	for c.events.len() > 0 && c.events.peekAt() <= c.now {
		ev := c.events.pop()
		tid := int(ev.tid)
		ring := c.rob.Ring(tid)
		if ring.PosOf(ev.slot) < 0 {
			continue // entry squashed and slot not yet reused
		}
		u := ring.At(ev.slot)
		if u.Seq != ev.seq || u.Squashed {
			continue
		}
		switch ev.kind {
		case evMissDetect:
			c.missDetect(tid, u)
		case evComplete:
			c.complete(tid, u)
		}
	}
}

func (c *CPU) missDetect(tid int, u *uop.UOp) {
	if u.Executed {
		// The fill arrived before detection completed (merged with an
		// outstanding miss); nothing to track.
		return
	}
	th := &c.threads[tid]
	u.L2Detected = true
	th.pendingL2Miss++
	if c.mlp != nil {
		if th.pendingL2Miss == 1 {
			// A new miss episode opens; predict its parallelism.
			th.episodePC = u.PC
			th.episodeMisses = 0
			th.predictedMLP = c.mlp.Predict(u.PC)
		} else {
			th.episodeMisses++
		}
	}
	c.rob.MissDetected(tid, u.RobSlot, u.PC, u.Hist, c.now)
	if c.pol.FlushOnL2Miss() && !th.flushWait {
		c.stats.FlushSquashes++
		c.squash(tid, u.Seq)
		th.flushWait = true
		th.flushLoadSeq = u.Seq
	}
}

func (c *CPU) complete(tid int, u *uop.UOp) {
	th := &c.threads[tid]
	c.rob.Ring(tid).MarkExecuted(u.RobSlot)
	u.CompleteAt = c.now
	if u.DestPhys != uop.NoReg {
		c.rf.SetReady(u.DestPhys)
		c.iq.Wakeup(u.DestPhys)
		if c.early != nil && !u.WrongPath {
			c.early.OnOverwriterExecuted(u.Seq, u.OldPhys)
		}
	}
	switch u.Op {
	case isa.OpLoad:
		c.lsq.MarkExecuted(tid, u.LsqSlot)
		if u.L1Miss {
			th.pendingDMiss--
		}
		if u.L2Detected {
			th.pendingL2Miss--
			if c.mlp != nil && th.pendingL2Miss == 0 {
				// Episode over: train with the overlap actually observed.
				c.mlp.Train(th.episodePC, th.episodeMisses)
				th.predictedMLP = 0
			}
			if th.flushWait && th.flushLoadSeq == u.Seq {
				th.flushWait = false
				th.fetchStalledUntil = c.now + int64(c.cfg.RedirectBubble)
			}
			ring := c.rob.Ring(tid)
			var exact int
			if c.cfg.TrackExactDoD {
				exact = rob.ExactDoD(ring, u.RobSlot)
			}
			dod, ok := c.rob.MissServiced(tid, u.RobSlot, c.now)
			if ok {
				c.dodHist.Add(dod)
				if c.cfg.TrackExactDoD {
					diff := dod - exact
					if diff < 0 {
						diff = -diff
					}
					c.stats.ApproxDoDSamples++
					c.stats.ApproxExactDiffSum += uint64(diff)
				}
			}
		}
	case isa.OpStore:
		c.lsq.MarkExecuted(tid, u.LsqSlot)
	case isa.OpBranch:
		c.resolveBranch(tid, th, u)
	}
}

func (c *CPU) resolveBranch(tid int, th *thread, u *uop.UOp) {
	if c.early != nil {
		c.early.OnBranchResolved(tid)
	}
	c.gshare.Update(u.PC, u.Hist, u.Taken, u.PredTaken)
	if u.Taken && !u.WrongPath {
		c.btb.Update(u.PC, th.src.BranchTarget(u.PC))
	}
	if !u.Mispred {
		return
	}
	c.squash(tid, u.Seq)
	th.mispredPending = false
	th.wrongPath = false
	if redirect := c.now + int64(c.cfg.RedirectBubble); th.fetchStalledUntil < redirect {
		th.fetchStalledUntil = redirect
	}
	// Repair the speculative history: everything after this branch was
	// squashed; re-seed with the branch's own (actual) outcome.
	bit := uint64(0)
	if u.Taken {
		bit = 1
	}
	c.gshare.SetHist(tid, (u.Hist<<1)|bit)
}

// ---- squash ----

// squash removes every in-flight instruction of tid strictly younger than
// targetSeq: ROB entries (youngest-first rename rollback), IQ and LSQ
// entries, and the whole front-end queue. Real-path instructions are
// pushed onto the replay queue for re-fetch; wrong-path ones evaporate.
func (c *CPU) squash(tid int, targetSeq uint64) {
	th := &c.threads[tid]
	ring := c.rob.Ring(tid)

	replayRev := th.sqScratch[:0] // youngest-first; reversed below
	var oldestBranchHist uint64
	haveBranchHist := false

	for {
		t := ring.Tail()
		if t == nil || t.Seq <= targetSeq {
			break
		}
		if c.early != nil {
			if !t.Issued {
				for _, s := range t.SrcPhys {
					c.early.OnSquashRead(s)
				}
			}
			if t.Op == isa.OpBranch && !t.Executed {
				c.early.OnBranchResolved(tid)
			}
			if t.DestPhys != uop.NoReg && !t.WrongPath {
				if c.early.OnOverwriterGone(t.Seq, t.OldPhys) {
					panic("pipeline: squashing an early-released rename")
				}
			}
		}
		if t.DestPhys != uop.NoReg {
			c.rf.Rollback(tid, int(t.DestArch), t.DestPhys, t.OldPhys)
			if isa.IsFPReg(int(t.DestArch)) {
				th.fpRegs--
			} else {
				th.intRegs--
			}
		}
		if t.LsqSlot >= 0 {
			c.lsq.PopTail(tid, t.Seq)
		}
		if t.Op == isa.OpLoad && t.Issued && !t.Executed {
			if t.L1Miss {
				th.pendingDMiss--
			}
			if t.L2Detected {
				th.pendingL2Miss--
				if c.mlp != nil && th.pendingL2Miss == 0 {
					th.predictedMLP = 0
				}
			}
		}
		if th.flushWait && t.Seq == th.flushLoadSeq {
			th.flushWait = false
		}
		if t.Op == isa.OpBranch && t.Mispred && !t.Executed && !t.WrongPath {
			// The unresolved mispredicted branch itself is being squashed
			// (e.g. by a FLUSH): there is no resolver left, so wrong-path
			// fetch must stop — the branch replays and re-predicts.
			th.mispredPending = false
			th.wrongPath = false
		}
		c.rob.EntrySquashed(tid, t.RobSlot)
		if !t.WrongPath {
			if t.Op == isa.OpBranch {
				oldestBranchHist = t.Hist
				haveBranchHist = true
			}
			replayRev = append(replayRev, isa.TraceInst{
				PC:    t.PC,
				Op:    t.Op,
				Dest:  t.DestArch,
				Src1:  t.SrcArch[0],
				Src2:  t.SrcArch[1],
				Addr:  t.Addr,
				Taken: t.Taken,
			})
		}
		ring.MarkSquashed(t.RobSlot)
		c.stats.SquashedUops++
		ring.PopTail()
	}
	c.iq.SquashYounger(int8(tid), targetSeq)

	// Rebuild the replay queue in program order into the reusable merge
	// scratch: squashed ROB entries (oldest first), then squashed
	// front-end entries, then whatever was already queued for replay.
	// Front-end entries are younger than everything in the ROB; note the
	// oldest branch history there only if the ROB walk found none.
	merged := th.mergeScratch[:0]
	for i := len(replayRev) - 1; i >= 0; i-- {
		merged = append(merged, replayRev[i])
	}
	fePrepended := 0
	for i := 0; i < th.fq.len(); i++ {
		e := th.fq.at(i)
		if e.wrongPath {
			continue
		}
		if e.isBranch {
			if !haveBranchHist {
				oldestBranchHist = e.hist
				haveBranchHist = true
			}
			if e.predTaken != e.inst.Taken {
				// The pending mispredicted branch was still in the front
				// end; clearing it must also stop wrong-path fetch.
				th.mispredPending = false
				th.wrongPath = false
			}
		}
		merged = append(merged, e.inst)
		fePrepended++
	}
	th.fq.clear()

	if len(replayRev) > 0 || fePrepended > 0 {
		merged = append(merged, th.replay.pending()...)
		th.mergeScratch = th.replay.replace(merged)
		th.squashRefill = true
	} else {
		th.mergeScratch = merged[:0]
	}
	th.sqScratch = replayRev[:0]
	if haveBranchHist {
		c.gshare.SetHist(tid, oldestBranchHist)
	}
}

// ---- commit ----

// commit retires up to CommitWidth executed instructions across threads in
// program order per thread; returns true when a thread reaches its budget.
//
//tlrob:allocfree
func (c *CPU) commit(budget uint64) bool {
	remaining := c.cfg.CommitWidth
	n := c.cfg.Threads
	done := false
	for i := 0; i < n && remaining > 0; i++ {
		tid := (c.commitRR + i) % n
		th := &c.threads[tid]
		ring := c.rob.Ring(tid)
		for remaining > 0 {
			h := ring.Head()
			if h == nil || !h.Executed {
				break
			}
			if h.WrongPath {
				panic(fmt.Sprintf("pipeline: wrong-path uop at commit (tid=%d seq=%d)", tid, h.Seq))
			}
			c.commitOne(tid, th, h)
			remaining--
			if th.committed >= budget {
				th.finished = true
				done = true
			}
		}
	}
	c.commitRR = (c.commitRR + 1) % n
	return done
}

//tlrob:allocfree
func (c *CPU) commitOne(tid int, th *thread, u *uop.UOp) {
	if c.CommitHook != nil {
		c.CommitHook(tid, u)
	}
	if u.IsMem() {
		head := c.lsq.Head(tid)
		if head == nil || head.RobSlot != u.RobSlot {
			panic("pipeline: LSQ/ROB commit order mismatch")
		}
		if u.Op == isa.OpStore {
			c.hier.StoreCommit(u.Addr)
		}
		c.lsq.PopHead(tid)
	}
	if u.DestPhys != uop.NoReg {
		released := false
		if c.early != nil {
			released = c.early.OnOverwriterGone(u.Seq, u.OldPhys)
		}
		if !released {
			c.rf.Release(u.OldPhys)
		}
		if isa.IsFPReg(int(u.DestArch)) {
			th.fpRegs--
		} else {
			th.intRegs--
		}
	}
	c.rob.Ring(tid).PopHead()
	th.committed++
	c.stats.Committed[tid]++
}
