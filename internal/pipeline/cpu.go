package pipeline

import (
	"fmt"
	"math"
	"sort"
	"time"

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

// thread is the per-thread front-end and bookkeeping state. The fields
// every stepped cycle reads (snapshots, fetch, dispatch, the skip check)
// come first, so they share the struct's first two cache lines.
type thread struct {
	// Front-end queue: fetched, not yet dispatched.
	fq feQueue

	fetchStalledUntil int64
	// blockedAt is the last cycle whose dispatch found this thread's head
	// blocked (-1 before any): nextInterestingCycle reuses that verdict.
	blockedAt int64
	committed uint64

	pendingDMiss  int // issued loads with an L1D miss outstanding
	pendingL2Miss int // detected, unserviced L2 misses
	predictedMLP  int // the current miss episode's predicted overlap (MLP policy)

	finished       bool
	flushWait      bool // FLUSH policy: gated until flushLoadSeq returns
	mispredPending bool // a fetched mispredicted branch is unresolved
	wrongPath      bool // fetching synthetic wrong-path instructions
	// squashRefill marks the replay queue's current contents as squash
	// debris: set when a squash queues real-path instructions for
	// re-fetch, cleared when the queue drains. While it holds (and the
	// queue is non-empty), a starved front end is charged to the squash
	// machinery rather than to ordinary fetch starvation — an I-cache
	// stall also parks one instruction in the replay queue, which is why
	// a bare replay.len()>0 test cannot make that call.
	squashRefill bool

	src TraceSource
	// replay holds real-path instructions squashed by a FLUSH or a
	// misprediction so they can be re-fetched (a trace cannot rewind).
	replay replayQueue

	// Squash-path scratch buffers, reused across mispredictions so the
	// replay rebuild is allocation-free in steady state: sqScratch holds
	// the squashed ROB entries youngest-first, mergeScratch becomes the
	// rebuilt replay backing array (swapped with the old one).
	sqScratch    []isa.TraceInst
	mergeScratch []isa.TraceInst

	flushLoadSeq uint64
	fetched      uint64

	// MLP-policy episode tracking: the load that opened the current miss
	// episode and the misses observed since (predictedMLP above is the
	// episode's prediction).
	episodePC     uint64
	episodeMisses int

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
	canFetch []bool // per thread: mayFetch at the top of this cycle's fetch
	readyBuf []int
	// capsDispatch is set when the policy may refuse dispatch (DCRA): only
	// then does the gate ask it, and only then does a dry-run gate need
	// the snapshots rebuilt first, since the cap reads them.
	capsDispatch bool

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
	// work is the rest of the work ledger: host-independent counts of
	// what the stepped cycles did. Like stepped it stays out of Result;
	// TestWorkLedgerGolden pins it.
	work workLedger
	// clock times each stage of the stepped cycles; nil outside tests
	// (BenchmarkStages).
	clock *stageClock

	// tel is nil when telemetry is disabled; the per-cycle collector
	// calls, and dispatch's record of each thread's outcome, are guarded
	// by that nil check. telState is the reusable per-cycle snapshot,
	// allocated with the collector.
	tel      *telemetry.Collector
	telState *telemetry.CycleState
}

// workLedger counts the engine's own work. The LSQ entries LoadCheck
// inspects and the DoD-index writes are counted by their substrates
// (lsq.LSQ.Inspected, rob.Ring.IndexWrites).
type workLedger struct {
	skipSpans    int64 // idle spans skipTo charged in closed form
	eventsPushed int64
	eventsPopped int64
	readyEntries int64 // IQ entries CollectReady returned
	gateEvals    int64 // dispatchGate evaluations, dry runs included
	loadChecks   int64 // lsq.LoadCheck calls
}

// New builds a CPU; sources must supply cfg.Threads trace streams. Its
// memory hierarchy, BTB and ROB rings come from the machine pool when a
// machine with parts of the same geometry was released (see Release);
// the run is bit-identical either way.
func New(cfg Config, sources []TraceSource) (*CPU, error) {
	return newCPU(cfg, sources, pooledParts)
}

// newCPU is New with the pooled parts built by from.
func newCPU(cfg Config, sources []TraceSource, from parts) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Threads {
		return nil, fmt.Errorf("pipeline: %d trace sources for %d threads", len(sources), cfg.Threads)
	}
	c := &CPU{cfg: cfg}
	var err error
	if c.rob, err = rob.NewWithRings(cfg.ROB, from.ring); err != nil {
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
	if c.hier, err = from.hier(cfg.Hier); err != nil {
		return nil, err
	}
	if c.gshare, err = predictor.NewGShare(cfg.GShareEntries, cfg.GShareHistBits, cfg.Threads); err != nil {
		return nil, err
	}
	if c.btb, err = from.btb(cfg.BTBEntries, cfg.BTBAssoc); err != nil {
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
	if c.pol, err = policy.New(cfg.PolicyKind, cfg.DCRAAlpha, cfg.IQSize); err != nil {
		return nil, err
	}
	c.threads = make([]thread, cfg.Threads)
	var regions []isa.Region
	for i := range c.threads {
		c.threads[i].src = sources[i]
		c.threads[i].fq = newFeQueue(cfg.FrontEndBuf)
		c.threads[i].blockedAt = -1
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
	c.capsDispatch = cfg.PolicyKind == policy.DCRA
	c.order = make([]int, 0, cfg.Threads)
	c.canFetch = make([]bool, cfg.Threads)
	c.readyBuf = make([]int, 0, cfg.IQSize)
	c.dodHist = metrics.NewHistogram(cfg.ROB.L1Size + cfg.ROB.L2Size + 1)
	c.stats.Committed = make([]uint64, cfg.Threads)
	c.stats.Fetched = make([]uint64, cfg.Threads)
	c.stats.Loads = make([]uint64, cfg.Threads)
	c.stats.LoadL1Miss = make([]uint64, cfg.Threads)
	c.stats.LoadL2Miss = make([]uint64, cfg.Threads)
	c.stats.LoadLatencySum = make([]uint64, cfg.Threads)
	if cfg.Telemetry != nil {
		c.telState = telemetry.NewCycleState(cfg.Threads)
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
	if c.clock != nil {
		c.clock.last = time.Now()
	}
	for {
		if done := c.stepCycle(budget); done {
			break
		}
		stuck := c.advance(maxCycles)
		c.lap(stageSkip)
		if stuck {
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
func (c *CPU) stepCycle(budget uint64) bool {
	c.stepped++
	if c.tel != nil {
		c.telState.Reset()
	}
	c.writeback()
	c.lap(stageWriteback)
	if done := c.commit(budget); done {
		return true
	}
	c.lap(stageCommit)
	c.rob.Tick(c.now)
	c.iq.Tick()
	c.buildSnapshots()
	c.lap(stageROB)
	c.issue()
	c.lap(stageIssue)
	c.dispatch()
	if c.tel != nil {
		c.recordTelemetry()
	}
	c.lap(stageDispatch)
	c.fetch()
	c.lap(stageFetch)
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
func (c *CPU) starvedCause(th *thread) telemetry.Cause {
	if th.flushWait || (th.squashRefill && th.replay.len() > 0) {
		return telemetry.CauseSquashRefill
	}
	return telemetry.CauseFetchStarved
}

// buildSnapshots refreshes the per-thread state the policy decides from.
func (c *CPU) buildSnapshots() {
	owner := c.rob.Owner()
	for t := range c.snaps {
		th := &c.threads[t]
		s := &c.snaps[t]
		s.FrontEnd = th.fq.len()
		s.IQ = c.iq.CountOf(t)
		s.PendingDMiss = th.pendingDMiss > 0
		s.PendingL2Miss = th.pendingL2Miss > 0
		s.PredictedMLP = th.predictedMLP
		s.OwnsROB = owner == t
		s.Finished = th.finished
	}
	c.pol.Observe(c.snaps)
}
