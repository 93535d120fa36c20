package pipeline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/uop"

	"repro/internal/cache"
	"repro/internal/fu"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/predictor"
	"repro/internal/regfile"
	"repro/internal/rob"
	"repro/internal/telemetry"
)

// TraceSource supplies one thread's dynamic instruction stream.
// workload.Generator implements it.
type TraceSource interface {
	// Next fills out with the next instruction on the thread's actual path.
	Next(out *isa.TraceInst)
	// BranchTarget returns the taken-target PC for the branch at pc.
	BranchTarget(pc uint64) uint64
}

// RegionProvider is optionally implemented by trace sources that can
// report their address ranges for cache prewarming.
type RegionProvider interface {
	Regions() []isa.Region
}

// feEntry is a fetched instruction waiting in the front end.
type feEntry struct {
	inst      isa.TraceInst
	readyAt   int64
	hist      uint64 // gshare history snapshot at prediction
	predTaken bool
	isBranch  bool
	wrongPath bool
}

// thread is the per-thread front-end and bookkeeping state.
type thread struct {
	src TraceSource

	// Front-end queue (fetched, not yet dispatched), plus a replay queue
	// of real-path instructions squashed by a FLUSH so they can be
	// re-fetched (a trace cannot rewind).
	fq     feQueue
	replay replayQueue

	// Squash-path scratch buffers, reused across mispredictions so the
	// replay rebuild is allocation-free in steady state: sqScratch holds
	// the squashed ROB entries youngest-first, mergeScratch becomes the
	// rebuilt replay backing array (swapped with the old one).
	sqScratch    []isa.TraceInst
	mergeScratch []isa.TraceInst

	// instScratch receives the next trace instruction in fetchThread. It
	// lives on the thread (not the stack) because TraceSource.Next takes a
	// pointer through an interface, which escape analysis would otherwise
	// heap-allocate once per fetched instruction.
	instScratch isa.TraceInst

	fetchStalledUntil int64
	mispredPending    bool // a fetched mispredicted branch is unresolved
	wrongPath         bool // fetching synthetic wrong-path instructions
	flushWait         bool // FLUSH policy: gated until flushLoadSeq returns
	flushLoadSeq      uint64
	// squashRefill marks the replay queue's current contents as squash
	// debris: set when a squash queues real-path instructions for
	// re-fetch, cleared when the queue drains. While it holds (and the
	// queue is non-empty), a starved front end is charged to the squash
	// machinery rather than to ordinary fetch starvation — an I-cache
	// stall also parks one instruction in the replay queue, which is why
	// a bare replay.len()>0 test cannot make that call.
	squashRefill bool

	committed uint64
	fetched   uint64
	finished  bool

	pendingDMiss  int // issued loads with an L1D miss outstanding
	pendingL2Miss int // detected, unserviced L2 misses

	intRegs, fpRegs int // in-flight physical registers held

	// MLP-policy episode tracking: the load that opened the current miss
	// episode, the misses observed since, and the episode's prediction.
	episodePC     uint64
	episodeMisses int
	predictedMLP  int

	wpCounter uint64 // wrong-path synthesis state
}

// Stats aggregates run-wide counters beyond the substrates' own stats.
type Stats struct {
	Cycles              int64
	Committed           []uint64
	Fetched             []uint64
	Loads               []uint64 // issued demand loads per thread
	LoadL1Miss          []uint64
	LoadL2Miss          []uint64
	LoadLatencySum      []uint64 // issue-to-data cycles summed per thread
	SquashedUops        uint64
	WrongPathDispatched uint64
	EarlyRegReleases    uint64
	FlushSquashes       uint64
	ApproxDoDSamples    uint64
	ApproxExactDiffSum  uint64 // sum |approx-exact| over sampled misses
}

// Result is everything a run reports.
type Result struct {
	Stats
	IPC          []float64
	DoDHist      *metrics.Histogram // service-time dependents (Figs 1/3/7)
	ROBStats     rob.Stats
	IQStats      iq.Stats
	LSQStats     lsq.Stats
	L1D, L1I, L2 cache.Stats
	HierStats    cache.HierStats
	Branch       predictor.GShareStats
	LoadHit      predictor.LoadHitStats
	DoDPred      *rob.DoDPredStats // nil unless the predictive scheme ran

	// Telemetry is the run's instrumentation collector (stall
	// attribution, occupancy rings, grant intervals); nil unless
	// Config.Telemetry was set.
	Telemetry *telemetry.Collector
}

// CPU is one simulated SMT machine instance. Not safe for concurrent use;
// run one CPU per goroutine.
type CPU struct {
	cfg Config

	threads []thread
	rob     *rob.TwoLevel
	iq      *iq.IQ
	lsq     *lsq.LSQ
	rf      *regfile.File
	early   *regfile.EarlyReleaser
	fus     *fu.Pools
	hier    *cache.Hierarchy
	gshare  *predictor.GShare
	btb     *predictor.BTB
	loadHit *predictor.LoadHit
	mlp     *predictor.MLP
	pol     policy.Policy

	// CommitHook, when set before Run, observes every committed
	// instruction in program order per thread — the integration point for
	// trace validation and custom instrumentation.
	CommitHook func(tid int, u *uop.UOp)

	events     eventHeap
	now        int64
	seqNext    uint64
	dispatchRR int
	commitRR   int

	snaps    []policy.Snapshot
	order    []int
	readyBuf []int

	dodHist *metrics.Histogram
	stats   Stats

	// skipAhead enables the event-driven engine: advance consults
	// nextInterestingCycle after each simulated cycle and fast-forwards
	// across provably idle spans. Cleared by Config.NaiveTicker.
	skipAhead bool
	// stepped counts the cycles stepCycle simulated one at a time (the
	// rest were skipped). Tests read it; it stays out of Result so the
	// two engines' Results still compare equal.
	stepped int64

	// tel is nil when telemetry is disabled; the per-cycle collector
	// calls are guarded by that nil check. telState is the reusable
	// per-cycle snapshot; it is always allocated, so dispatch records
	// each thread's outcome into it without a nil check of its own.
	tel      *telemetry.Collector
	telState *telemetry.CycleState
}

// New builds a CPU; sources must supply cfg.Threads trace streams.
func New(cfg Config, sources []TraceSource) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Threads {
		return nil, fmt.Errorf("pipeline: %d trace sources for %d threads", len(sources), cfg.Threads)
	}
	c := &CPU{cfg: cfg}
	var err error
	if c.rob, err = rob.New(cfg.ROB); err != nil {
		return nil, err
	}
	if c.iq, err = iq.New(cfg.IQSize, cfg.Threads); err != nil {
		return nil, err
	}
	if c.lsq, err = lsq.New(cfg.Threads, cfg.LSQSize); err != nil {
		return nil, err
	}
	if c.rf, err = regfile.New(cfg.IntRegs, cfg.FPRegs, cfg.Threads); err != nil {
		return nil, err
	}
	if cfg.EarlyRegRelease {
		c.early = regfile.NewEarlyReleaser(c.rf, cfg.Threads)
	}
	c.fus = fu.New()
	if c.hier, err = cache.NewHierarchy(cfg.Hier); err != nil {
		return nil, err
	}
	if c.gshare, err = predictor.NewGShare(cfg.GShareEntries, cfg.GShareHistBits, cfg.Threads); err != nil {
		return nil, err
	}
	if c.btb, err = predictor.NewBTB(cfg.BTBEntries, cfg.BTBAssoc); err != nil {
		return nil, err
	}
	if c.loadHit, err = predictor.NewLoadHit(cfg.LoadHitEntries, cfg.Threads); err != nil {
		return nil, err
	}
	if cfg.PolicyKind == policy.MLP {
		if c.mlp, err = predictor.NewMLP(4096); err != nil {
			return nil, err
		}
	}
	lim := policy.Limits{
		IQ:      cfg.IQSize,
		IntRegs: cfg.IntRegs,
		FPRegs:  cfg.FPRegs,
	}
	if c.pol, err = policy.New(cfg.PolicyKind, cfg.DCRAAlpha, lim); err != nil {
		return nil, err
	}
	c.threads = make([]thread, cfg.Threads)
	var regions []isa.Region
	for i := range c.threads {
		c.threads[i].src = sources[i]
		c.threads[i].fq = newFeQueue(cfg.FrontEndBuf)
		if cfg.Prewarm {
			if rp, ok := sources[i].(RegionProvider); ok {
				regions = append(regions, rp.Regions()...)
			}
		}
	}
	// Prewarm largest regions first: working sets that exceed the L2 miss
	// regardless of residency, while the cache-resident sets of the other
	// threads must end up warm — a later multi-megabyte insert would evict
	// them and strand those threads in a cold-start regime the paper's
	// 100M-instruction SimPoints never see.
	sort.Slice(regions, func(a, b int) bool { return regions[a].Size > regions[b].Size })
	for _, r := range regions {
		c.hier.Prewarm(r.Base, r.Size, r.Code)
	}
	c.snaps = make([]policy.Snapshot, cfg.Threads)
	c.order = make([]int, 0, cfg.Threads)
	c.readyBuf = make([]int, 0, cfg.IQSize)
	c.dodHist = metrics.NewHistogram(cfg.ROB.L1Size + cfg.ROB.L2Size + 1)
	c.stats.Committed = make([]uint64, cfg.Threads)
	c.stats.Fetched = make([]uint64, cfg.Threads)
	c.stats.Loads = make([]uint64, cfg.Threads)
	c.stats.LoadL1Miss = make([]uint64, cfg.Threads)
	c.stats.LoadL2Miss = make([]uint64, cfg.Threads)
	c.stats.LoadLatencySum = make([]uint64, cfg.Threads)
	c.telState = telemetry.NewCycleState(cfg.Threads)
	if cfg.Telemetry != nil {
		c.tel = telemetry.NewCollector(cfg.Threads, *cfg.Telemetry)
		c.rob.OnGrantAcquired = c.tel.GrantAcquired
		c.rob.OnGrantPiggyback = c.tel.GrantPiggyback
		c.rob.OnGrantReleased = c.tel.GrantReleased
	}
	c.skipAhead = !cfg.NaiveTicker
	return c, nil
}

// Run simulates until any thread commits budget instructions (the paper's
// stop rule) and returns the collected results. Each iteration simulates
// exactly one cycle and then advances the clock — by one, or (with the
// skip-ahead engine) straight to the next cycle at which anything can
// happen, charging the skipped span in closed form. Both paths produce
// bit-identical results; the differential tests hold them to it.
func (c *CPU) Run(budget uint64) (Result, error) {
	if budget == 0 {
		return Result{}, fmt.Errorf("pipeline: zero instruction budget")
	}
	maxCycles := watchdogCycles(budget, c.cfg.MaxCycles)
	for {
		if done := c.stepCycle(budget); done {
			break
		}
		if c.advance(maxCycles) {
			//tlrob:allow(cold: terminal error path, runs at most once per simulation)
			return Result{}, fmt.Errorf("pipeline: no thread reached %d commits within %d cycles (deadlock or budget too large)", budget, maxCycles)
		}
	}
	return c.result(), nil
}

// watchdogCycles derives the deadlock-watchdog limit from the
// instruction budget when the configuration does not pin one. The worst
// realistic case is one commit per memory round-trip (~2000 cycles);
// the product saturates at MaxInt64 instead of wrapping negative for
// astronomic budgets, which used to trip the watchdog on cycle 0.
func watchdogCycles(budget uint64, cfgMax int64) int64 {
	if cfgMax != 0 {
		return cfgMax
	}
	const cyclesPerCommit = 2000
	if budget > math.MaxInt64/cyclesPerCommit {
		return math.MaxInt64
	}
	maxCycles := int64(budget) * cyclesPerCommit
	if maxCycles < 1_000_000 {
		maxCycles = 1_000_000
	}
	return maxCycles
}

// stepCycle simulates exactly cycle c.now — every stage, in order — and
// reports whether a thread reached its commit budget (the stop rule).
//
//tlrob:allocfree (the per-cycle body: every call is one simulated cycle)
func (c *CPU) stepCycle(budget uint64) bool {
	c.stepped++
	c.telState.Reset()
	c.writeback()
	if done := c.commit(budget); done {
		return true
	}
	c.rob.Tick(c.now)
	c.iq.Tick()
	c.buildSnapshots()
	c.issue()
	c.dispatch()
	if c.tel != nil {
		c.recordTelemetry()
	}
	c.fetch()
	return false
}

func (c *CPU) result() Result {
	res := Result{
		Stats:     c.stats,
		IPC:       make([]float64, c.cfg.Threads),
		DoDHist:   c.dodHist,
		ROBStats:  c.rob.Stats(),
		IQStats:   c.iq.Stats(),
		LSQStats:  c.lsq.Stats(),
		L1D:       c.hier.L1D.Stats(),
		L1I:       c.hier.L1I.Stats(),
		L2:        c.hier.L2.Stats(),
		HierStats: c.hier.Stats(),
		Branch:    c.gshare.Stats(),
		LoadHit:   c.loadHit.Stats(),
	}
	res.Cycles = c.now
	if c.tel != nil {
		c.tel.Finish(c.now)
		res.Telemetry = c.tel
	}
	if c.early != nil {
		res.EarlyRegReleases = c.early.Released()
	}
	if p := c.rob.Predictor(); p != nil {
		s := p.Stats()
		res.DoDPred = &s
	}
	for t := range c.threads {
		if c.now > 0 {
			res.IPC[t] = float64(c.stats.Committed[t]) / float64(c.now)
		}
	}
	return res
}

// recordTelemetry charges the just-simulated cycle: dispatch classified
// the blocked threads during its walk (telState.Causes); threads it
// never reached are classified here, then the occupancy snapshot is
// taken and the cycle committed to the collector. Runs only when
// telemetry is enabled; the state is reset at the top of the next
// stepCycle.
//
//tlrob:allocfree
func (c *CPU) recordTelemetry() {
	st := c.telState
	for t := range c.threads {
		th := &c.threads[t]
		st.ROBLen[t] = int32(c.rob.Ring(t).Len())
		if st.Dispatched[t] != 0 || st.Causes[t] != telemetry.CauseNone {
			continue
		}
		// Dispatch never blocked on a resource for this thread: it was
		// starved of eligible instructions, already finished, or lost
		// the shared dispatch bandwidth to the other threads.
		switch {
		case th.finished:
			st.Causes[t] = telemetry.CauseFinished
		case th.fq.len() == 0 || th.fq.peek().readyAt > c.now:
			st.Causes[t] = c.starvedCause(th)
		default:
			st.Causes[t] = telemetry.CauseDispatchBW
		}
	}
	st.IQLen = int32(c.iq.Len())
	st.IntRegs = int32(c.rf.InFlight(false))
	st.FPRegs = int32(c.rf.InFlight(true))
	st.Owner = int8(c.rob.Owner())
	c.tel.RecordCycle(c.now, st)
}

// starvedCause splits an empty (or not-yet-ready) front end between the
// squash machinery and ordinary fetch starvation: a thread gated by the
// FLUSH policy, or whose next real-path instructions sit in the replay
// queue because a squash put them there, is blocked by the squash — not
// by the I-cache or the front-end pipeline depth.
//
//tlrob:allocfree
func (c *CPU) starvedCause(th *thread) telemetry.Cause {
	if th.flushWait || (th.squashRefill && th.replay.len() > 0) {
		return telemetry.CauseSquashRefill
	}
	return telemetry.CauseFetchStarved
}

// buildSnapshots refreshes the per-thread state the policy decides from.
//
//tlrob:allocfree
func (c *CPU) buildSnapshots() {
	for t := range c.threads {
		th := &c.threads[t]
		c.snaps[t] = policy.Snapshot{
			FrontEnd:      th.fq.len(),
			IQ:            c.iq.CountOf(t),
			IntRegs:       th.intRegs,
			FPRegs:        th.fpRegs,
			PendingDMiss:  th.pendingDMiss > 0,
			PendingL2Miss: th.pendingL2Miss > 0,
			PredictedMLP:  th.predictedMLP,
			OwnsROB:       c.rob.Owner() == t,
			Finished:      th.finished,
		}
	}
}
