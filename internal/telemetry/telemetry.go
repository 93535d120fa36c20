// Package telemetry is the simulator's observability layer: cycle-level
// stall attribution, structural occupancy tracing and second-level grant
// lifetimes, recorded into ring buffers that grow on demand up to their
// caps, so the enabled path allocates only when a ring doubles — a few
// times per run, never per cycle. The pipeline drives a Collector with one
// RecordCycle call per simulated cycle; when telemetry is disabled the
// pipeline holds a nil Collector and skips every call behind a nil
// check, so the disabled path costs one predictable branch per cycle.
//
// Stall attribution follows a strict accounting rule: every cycle of
// every thread is either dispatch-active (the thread inserted at least
// one instruction into the window) or charged to exactly one Cause. The
// invariant
//
//	activeCycles[t] + Σ_cause stallCycles[t][cause] == total cycles
//
// holds for every thread and is verified by Summary.CheckInvariant.
package telemetry

import "fmt"

// Cause classifies why a thread failed to dispatch during one cycle.
// Exactly one cause is charged per non-dispatching thread-cycle.
type Cause uint8

const (
	// CauseNone marks a dispatch-active cycle; it is never charged.
	CauseNone Cause = iota
	// CauseROBFull: the thread's reorder-buffer allocation is exhausted
	// (first level for non-owners, first+second for the owner, the whole
	// pool under the shared scheme) with no outstanding L2 miss that a
	// second-level grant could cover.
	CauseROBFull
	// CauseL2GrantWait: the first-level ROB is full while an L2 miss is
	// outstanding and the thread does not hold the second-level
	// partition — the cycles the two-level schemes exist to reclaim.
	CauseL2GrantWait
	// CauseIQFull: no issue-queue entry was available, the resource
	// policy withheld one, or the owner's co-runner headroom reserve hit.
	CauseIQFull
	// CauseRegFile: no rename register of the needed class (or the
	// owner's rename-pool reserve hit).
	CauseRegFile
	// CauseLSQFull: the thread's load/store queue is full.
	CauseLSQFull
	// CauseFetchStarved: nothing dispatch-eligible in the front end —
	// the fetch queue is empty (I-cache stall, redirect) or its head has
	// not cleared the front-end pipeline.
	CauseFetchStarved
	// CauseSquashRefill: the front end is empty because of the squash
	// machinery, not ordinary fetch starvation — the FLUSH policy gates
	// the thread until the flushing load returns, or squashed real-path
	// instructions are still queued for re-fetch in the replay queue.
	CauseSquashRefill
	// CauseDispatchBW: the head instruction was eligible but the shared
	// dispatch width was consumed by other threads first.
	CauseDispatchBW
	// CauseFinished: the thread already committed its instruction budget.
	CauseFinished

	// NumCauses bounds the Cause space (array sizing).
	NumCauses
)

var causeNames = [NumCauses]string{
	"none", "rob_full", "l2_grant_wait", "iq_full", "regfile",
	"lsq_full", "fetch_starved", "squash_refill", "dispatch_bw", "finished",
}

// String returns the cause's snake_case name (stable: used as the JSON
// and Prometheus label vocabulary).
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// CauseByName resolves a snake_case cause name; ok is false for unknown
// names and for "none" is true (CauseNone).
func CauseByName(name string) (Cause, bool) {
	for i, n := range causeNames {
		if n == name {
			return Cause(i), true
		}
	}
	return CauseNone, false
}

// Config sizes a Collector. The zero value of every field is replaced
// by a default.
type Config struct {
	// SampleInterval is the cycle period of occupancy samples
	// (default 64). Stall attribution is exact regardless: it is
	// accumulated every cycle, not sampled.
	SampleInterval int64
	// SampleCap bounds the occupancy ring (default 1<<14 samples). The
	// ring's storage grows on demand, doubling, up to this cap. When
	// full, the oldest samples are overwritten and counted in
	// Summary.SamplesDropped — truncation is reported, never silent.
	SampleCap int
	// GrantCap bounds the grant-interval ring (default 4096), with the
	// same on-demand growth and oldest-overwritten-and-counted policy.
	GrantCap int
}

func (c Config) withDefaults() Config {
	if c.SampleInterval <= 0 {
		c.SampleInterval = 64
	}
	if c.SampleCap <= 0 {
		c.SampleCap = 1 << 14
	}
	if c.GrantCap <= 0 {
		c.GrantCap = 4096
	}
	return c
}

// CycleState is the per-cycle snapshot the pipeline fills and hands to
// RecordCycle. The pipeline owns one instance and reuses it every cycle;
// the collector copies out what it keeps. All per-thread slices have
// length Threads.
type CycleState struct {
	// Dispatched[t] is how many instructions thread t inserted this
	// cycle; zero means Causes[t] charges the cycle.
	Dispatched []uint8
	// Causes[t] is the stall cause for threads with Dispatched[t]==0
	// (ignored otherwise).
	Causes []Cause
	// ROBLen[t] is thread t's reorder-buffer occupancy after dispatch.
	ROBLen []int32
	// IQLen, IntRegs and FPRegs are the shared-structure occupancies.
	IQLen   int32
	IntRegs int32
	FPRegs  int32
	// Owner is the second-level holder (-1 when unowned).
	Owner int8
}

// NewCycleState allocates a snapshot for the given thread count.
func NewCycleState(threads int) *CycleState {
	return &CycleState{
		Dispatched: make([]uint8, threads),
		Causes:     make([]Cause, threads),
		ROBLen:     make([]int32, threads),
	}
}

// Reset clears the per-thread dispatch outcome for the next cycle.
func (st *CycleState) Reset() {
	for i := range st.Dispatched {
		st.Dispatched[i] = 0
		st.Causes[i] = CauseNone
	}
}

// GrantInterval is one tenancy of the shared second level: acquisition
// to release, with the owning thread and the PC of the triggering miss.
type GrantInterval struct {
	Tid   int8   `json:"tid"`
	PC    uint64 `json:"pc"`    // load that opened the tenancy
	Start int64  `json:"start"` // acquisition cycle
	End   int64  `json:"end"`   // release cycle (>= Start)
	// Misses counts the granted misses served under this tenancy (1 +
	// piggybacks).
	Misses int32 `json:"misses"`
}

// Collector accumulates one run's telemetry. Not safe for concurrent
// use: exactly one simulated CPU drives it. The counters are allocated
// at construction. The sample and grant rings start empty and grow on
// demand, doubling, up to SampleCap and GrantCap, so a short run pays
// only for what it records; RecordCycle and the grant hooks allocate
// only when a ring grows.
type Collector struct {
	cfg     Config
	threads int

	// Stall attribution (exact, per cycle).
	cycles    int64
	active    []uint64 // dispatch-active cycles per thread
	uops      []uint64 // instructions dispatched per thread
	stalls    []uint64 // [tid*NumCauses + cause]
	ownedCyc  uint64   // cycles the second level was held by anyone
	robOccSum []uint64 // per-thread ROB occupancy summed every cycle
	iqOccSum  uint64
	intRegSum uint64
	fpRegSum  uint64

	// Occupancy samples: a ring of rows. Its head moves only once it is
	// full at SampleCap, so until then row i is the i-th sample.
	nextSampleAt int64
	sHead, sLen  int
	sDropped     uint64
	samples      []sampleRow // storage: len(samples) rows
	sROB         []int32     // len(samples)*threads, row-major

	// Grant intervals: a ring like the samples', capped at GrantCap.
	gHead, gLen int
	gDropped    uint64
	grants      []GrantInterval
	open        GrantInterval
	openActive  bool
	grantCount  uint64 // tenancies opened (including evicted ones)
	piggybacks  uint64
	heldCycles  uint64 // closed-tenancy cycles
}

// sampleRow is one occupancy sample's shared-structure columns; the
// per-thread ROB occupancies live in Collector.sROB.
type sampleRow struct {
	cycle           int64
	iq, intRegs, fp int32
	owner           int8
}

// First storage sizes of the on-demand rings: enough for a
// few-thousand-instruction run without growing again.
const (
	firstSampleRows = 256
	firstGrantRows  = 64
)

// NewCollector builds a collector; threads must be positive.
func NewCollector(threads int, cfg Config) *Collector {
	if threads < 1 {
		panic("telemetry: need at least one thread")
	}
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:          cfg,
		threads:      threads,
		active:       make([]uint64, threads),
		uops:         make([]uint64, threads),
		stalls:       make([]uint64, threads*int(NumCauses)),
		robOccSum:    make([]uint64, threads),
		nextSampleAt: 0,
	}
	return c
}

// Config returns the collector's (defaults-filled) configuration.
func (c *Collector) Config() Config { return c.cfg }

// Cycles returns how many cycles have been recorded.
func (c *Collector) Cycles() int64 { return c.cycles }

// RecordCycle charges one simulated cycle: dispatch outcome per thread,
// occupancy accumulation, and (on sample cycles) one ring-buffer sample.
// It allocates only when the sample ring grows (see growSamples).
func (c *Collector) RecordCycle(now int64, st *CycleState) {
	c.cycles++
	for t := 0; t < c.threads; t++ {
		if st.Dispatched[t] > 0 {
			c.active[t]++
			c.uops[t] += uint64(st.Dispatched[t])
		} else {
			c.stalls[t*int(NumCauses)+int(st.Causes[t])]++
		}
		c.robOccSum[t] += uint64(st.ROBLen[t])
	}
	c.iqOccSum += uint64(st.IQLen)
	c.intRegSum += uint64(st.IntRegs)
	c.fpRegSum += uint64(st.FPRegs)
	if st.Owner >= 0 {
		c.ownedCyc++
	}
	if now >= c.nextSampleAt {
		c.sample(now, st)
		c.nextSampleAt = now + c.cfg.SampleInterval
	}
}

// RecordIdleSpan charges the cycles [from, to) in closed form — the
// exact equivalent of to-from RecordCycle calls with an unchanging
// machine state. st must describe that state: every thread is treated
// as non-dispatching and charged to st.Causes[t] (st.Dispatched is
// ignored), and the occupancy fields are accumulated multiplied by the
// span length. Samples that fall inside the span are emitted at exactly
// the cycles the per-cycle path would have picked, so occupancy traces
// are bit-identical whichever path recorded the span. The active+stalls
// == cycles invariant is preserved cause-by-cause. Like RecordCycle, it
// allocates only when the sample ring grows.
func (c *Collector) RecordIdleSpan(from, to int64, st *CycleState) {
	if to <= from {
		return
	}
	k := uint64(to - from)
	c.cycles += to - from
	for t := 0; t < c.threads; t++ {
		c.stalls[t*int(NumCauses)+int(st.Causes[t])] += k
		c.robOccSum[t] += uint64(st.ROBLen[t]) * k
	}
	c.iqOccSum += uint64(st.IQLen) * k
	c.intRegSum += uint64(st.IntRegs) * k
	c.fpRegSum += uint64(st.FPRegs) * k
	if st.Owner >= 0 {
		c.ownedCyc += k
	}
	// RecordCycle samples at the first cycle >= nextSampleAt and then
	// every SampleInterval; replay that schedule across the span.
	if c.nextSampleAt < from {
		c.nextSampleAt = from
	}
	for c.nextSampleAt < to {
		c.sample(c.nextSampleAt, st)
		c.nextSampleAt += c.cfg.SampleInterval
	}
}

func (c *Collector) sample(now int64, st *CycleState) {
	pos := c.sLen
	if c.sLen < c.cfg.SampleCap {
		if c.sLen == len(c.samples) {
			c.growSamples()
		}
		c.sLen++
	} else {
		pos = c.sHead
		c.sHead = (c.sHead + 1) % c.cfg.SampleCap
		c.sDropped++
	}
	c.samples[pos] = sampleRow{cycle: now, iq: st.IQLen, intRegs: st.IntRegs, fp: st.FPRegs, owner: st.Owner}
	copy(c.sROB[pos*c.threads:(pos+1)*c.threads], st.ROBLen)
}

// growSamples doubles the sample ring's storage, up to SampleCap. The
// ring has not wrapped yet, so its rows copy over in place.
func (c *Collector) growSamples() {
	n := min(max(2*len(c.samples), firstSampleRows), c.cfg.SampleCap)
	rows := make([]sampleRow, n)
	copy(rows, c.samples)
	c.samples = rows
	rob := make([]int32, n*c.threads)
	copy(rob, c.sROB)
	c.sROB = rob
}

// Samples returns the retained occupancy samples oldest-first. The
// visit callback receives the sample cycle, the per-thread ROB
// occupancies (valid only during the call) and the shared occupancies.
func (c *Collector) Samples(visit func(cycle int64, rob []int32, iq, intRegs, fpRegs int32, owner int8)) {
	for i := 0; i < c.sLen; i++ {
		pos := (c.sHead + i) % c.cfg.SampleCap
		r := &c.samples[pos]
		visit(r.cycle, c.sROB[pos*c.threads:(pos+1)*c.threads], r.iq, r.intRegs, r.fp, r.owner)
	}
}

// SampleCount returns how many occupancy samples are retained.
func (c *Collector) SampleCount() int { return c.sLen }

// GrantAcquired opens a second-level tenancy: thread tid took the
// partition at cycle now for the miss at pc. Signature-compatible with
// rob.TwoLevel's OnGrantAcquired hook.
func (c *Collector) GrantAcquired(tid int, pc uint64, now int64) {
	if c.openActive {
		// Defensive: a release was missed; close the stale tenancy at
		// the new acquisition cycle so intervals never overlap.
		c.GrantReleased(int(c.open.Tid), now)
	}
	c.open = GrantInterval{Tid: int8(tid), PC: pc, Start: now, Misses: 1}
	c.openActive = true
	c.grantCount++
}

// GrantPiggyback records a further miss joining the open tenancy.
func (c *Collector) GrantPiggyback(tid int, pc uint64, now int64) {
	if c.openActive {
		c.open.Misses++
	}
	c.piggybacks++
}

// GrantReleased closes the open tenancy at cycle now.
func (c *Collector) GrantReleased(tid int, now int64) {
	if !c.openActive {
		return
	}
	c.open.End = now
	c.heldCycles += uint64(now - c.open.Start)
	pos := c.gLen
	if c.gLen < c.cfg.GrantCap {
		if c.gLen == len(c.grants) {
			c.growGrants()
		}
		c.gLen++
	} else {
		pos = c.gHead
		c.gHead = (c.gHead + 1) % c.cfg.GrantCap
		c.gDropped++
	}
	c.grants[pos] = c.open
	c.openActive = false
}

// growGrants doubles the grant ring's storage, up to GrantCap, as
// growSamples does the sample ring's.
func (c *Collector) growGrants() {
	grants := make([]GrantInterval, min(max(2*len(c.grants), firstGrantRows), c.cfg.GrantCap))
	copy(grants, c.grants)
	c.grants = grants
}

// Grants returns the retained tenancy intervals oldest-first. The slice
// passed to visit is the ring storage; do not retain it.
func (c *Collector) Grants(visit func(g GrantInterval)) {
	for i := 0; i < c.gLen; i++ {
		visit(c.grants[(c.gHead+i)%c.cfg.GrantCap])
	}
}

// Finish closes any still-open grant at the run's final cycle. Call it
// once when simulation ends, before Summary or trace export.
func (c *Collector) Finish(now int64) {
	if c.openActive {
		c.GrantReleased(int(c.open.Tid), now)
	}
}

// ---- summary ----

// CauseCycles is one (cause, cycles) cell of a stall breakdown.
type CauseCycles struct {
	Cause  string `json:"cause"`
	Cycles uint64 `json:"cycles"`
}

// ThreadSummary is one thread's dispatch accounting over the run.
type ThreadSummary struct {
	ActiveCycles   uint64 `json:"active_cycles"`
	DispatchedUops uint64 `json:"dispatched_uops"`
	// Stalls lists every cause with a non-zero charge, in Cause order.
	Stalls []CauseCycles `json:"stalls,omitempty"`
	// MeanROBOcc is the thread's mean ROB occupancy (exact: accumulated
	// every cycle, not from samples).
	MeanROBOcc float64 `json:"mean_rob_occupancy"`
}

// StallCycles returns the cycles charged to the named cause (0 when
// absent from the breakdown).
func (t *ThreadSummary) StallCycles(cause Cause) uint64 {
	name := cause.String()
	for _, s := range t.Stalls {
		if s.Cause == name {
			return s.Cycles
		}
	}
	return 0
}

// TotalStallCycles sums the thread's charged stall cycles.
func (t *ThreadSummary) TotalStallCycles() uint64 {
	var sum uint64
	for _, s := range t.Stalls {
		sum += s.Cycles
	}
	return sum
}

// GrantsSummary aggregates the second-level tenancy intervals.
type GrantsSummary struct {
	Count      uint64  `json:"count"`
	Piggybacks uint64  `json:"piggybacks"`
	HeldCycles uint64  `json:"held_cycles"`
	MeanHeld   float64 `json:"mean_held_cycles"`
}

// Summary is the compact per-run telemetry digest merged into
// internal/report rows, simd results and NDJSON progress events.
type Summary struct {
	Cycles         int64           `json:"cycles"`
	Threads        []ThreadSummary `json:"threads"`
	MeanIQOcc      float64         `json:"mean_iq_occupancy"`
	MeanIntRegs    float64         `json:"mean_int_regs"`
	MeanFPRegs     float64         `json:"mean_fp_regs"`
	L2OwnedFrac    float64         `json:"l2_owned_frac"`
	Grants         GrantsSummary   `json:"grants"`
	SampleInterval int64           `json:"sample_interval"`
	Samples        int             `json:"samples"`
	SamplesDropped uint64          `json:"samples_dropped,omitempty"`
	GrantsDropped  uint64          `json:"grants_dropped,omitempty"`
}

// Summary digests the collector. Call Finish first so open grants are
// included.
func (c *Collector) Summary() *Summary {
	s := &Summary{
		Cycles:         c.cycles,
		Threads:        make([]ThreadSummary, c.threads),
		SampleInterval: c.cfg.SampleInterval,
		Samples:        c.sLen,
		SamplesDropped: c.sDropped,
		GrantsDropped:  c.gDropped,
		Grants: GrantsSummary{
			Count:      c.grantCount,
			Piggybacks: c.piggybacks,
			HeldCycles: c.heldCycles,
		},
	}
	if c.cycles > 0 {
		cyc := float64(c.cycles)
		s.MeanIQOcc = float64(c.iqOccSum) / cyc
		s.MeanIntRegs = float64(c.intRegSum) / cyc
		s.MeanFPRegs = float64(c.fpRegSum) / cyc
		s.L2OwnedFrac = float64(c.ownedCyc) / cyc
	}
	if c.grantCount > 0 {
		s.Grants.MeanHeld = float64(c.heldCycles) / float64(c.grantCount)
	}
	for t := 0; t < c.threads; t++ {
		ts := ThreadSummary{ActiveCycles: c.active[t], DispatchedUops: c.uops[t]}
		for cause := CauseNone + 1; cause < NumCauses; cause++ {
			if n := c.stalls[t*int(NumCauses)+int(cause)]; n > 0 {
				ts.Stalls = append(ts.Stalls, CauseCycles{Cause: cause.String(), Cycles: n})
			}
		}
		if c.cycles > 0 {
			ts.MeanROBOcc = float64(c.robOccSum[t]) / float64(c.cycles)
		}
		s.Threads[t] = ts
	}
	return s
}

// CheckInvariant verifies the stall-accounting identity: for every
// thread, active cycles plus charged stall cycles equal total cycles.
func (s *Summary) CheckInvariant() error {
	for t := range s.Threads {
		th := &s.Threads[t]
		got := th.ActiveCycles + th.TotalStallCycles()
		if got != uint64(s.Cycles) {
			return fmt.Errorf("telemetry: thread %d accounts for %d of %d cycles (active %d + stalls %d)",
				t, got, s.Cycles, th.ActiveCycles, th.TotalStallCycles())
		}
	}
	return nil
}

// StallTotals sums stall cycles per cause across threads, plus the
// total dispatch-active cycles — the aggregation simd's /metrics
// exports. The returned array is indexed by Cause.
func (s *Summary) StallTotals() (stalls [NumCauses]uint64, active uint64) {
	for t := range s.Threads {
		th := &s.Threads[t]
		active += th.ActiveCycles
		for _, cc := range th.Stalls {
			if cause, ok := CauseByName(cc.Cause); ok {
				stalls[cause] += cc.Cycles
			}
		}
	}
	return stalls, active
}
