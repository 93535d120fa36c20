package rob

import (
	"fmt"
	"math"
)

// Scheme selects how (and whether) the second ROB level is allocated.
type Scheme uint8

const (
	// Baseline never allocates a second level: each thread has a private
	// single-level ROB of L1Size entries (Baseline_32 / Baseline_128).
	Baseline Scheme = iota
	// Reactive is 2-Level R-ROB (§5.2): allocate when the missing load is
	// the oldest instruction, the first-level ROB is full, and the counted
	// DoD is below the threshold; conditions are rechecked every
	// RecheckInterval cycles.
	Reactive
	// RelaxedReactive is 2-Level Relaxed R-ROB (§5.2): as Reactive but the
	// first-level ROB need not be full, shrinking the allocation delay at
	// the cost of occasionally counting over a partially filled ROB.
	RelaxedReactive
	// CountDelayedReactive is 2-Level CDR-ROB (§5.2): both the oldest and
	// the full conditions are dropped; the DoD snapshot is taken CountDelay
	// cycles after miss detection.
	CountDelayedReactive
	// Predictive is 2-Level P-ROB (§5.3): a last-value DoD predictor is
	// consulted at miss detection and the partition granted immediately on
	// a below-threshold prediction; the actual count at miss service
	// verifies and retrains the predictor.
	Predictive
	// SharedSingle is the fully-shared single-level ROB of Raasch &
	// Reinhardt [9], the related-work design the paper contrasts the
	// statically partitioned baseline against: one pool of
	// Threads×L1Size entries that any thread may fill, commits drawn from
	// the oldest committable instructions of any thread.
	SharedSingle

	numSchemes
)

var schemeNames = [numSchemes]string{
	"baseline", "reactive", "relaxed-reactive", "count-delayed-reactive", "predictive",
	"shared-single",
}

// String returns the scheme name.
func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Config parameterizes the two-level ROB.
type Config struct {
	Threads int
	L1Size  int // private first-level entries per thread
	L2Size  int // shared second-level entries (allocated as one unit)

	Scheme          Scheme
	DoDThreshold    int
	RecheckInterval int // reactive recheck period (paper: 10)
	CountDelay      int // CDR snapshot delay (paper: 32)

	// Predictor shape (Predictive scheme).
	PredEntries  int
	PredPathHash bool
	PredHistBits uint
}

// DefaultConfig returns the paper's two-level shape for the given scheme
// and threshold: 32-entry first level, 384-entry second level, 10-cycle
// recheck, 32-cycle CDR delay, 4K-entry last-value predictor.
func DefaultConfig(threads int, scheme Scheme, threshold int) Config {
	return Config{
		Threads:         threads,
		L1Size:          32,
		L2Size:          384,
		Scheme:          scheme,
		DoDThreshold:    threshold,
		RecheckInterval: 10,
		CountDelay:      32,
		PredEntries:     4096,
		PredHistBits:    8,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Threads < 1 {
		return fmt.Errorf("rob: need at least one thread")
	}
	if c.L1Size < 1 {
		return fmt.Errorf("rob: first-level size must be positive")
	}
	if c.L2Size < 0 {
		return fmt.Errorf("rob: negative second-level size")
	}
	if c.Scheme >= numSchemes {
		return fmt.Errorf("rob: unknown scheme %d", c.Scheme)
	}
	if c.Scheme != Baseline && c.Scheme != SharedSingle {
		if c.L2Size == 0 {
			return fmt.Errorf("rob: scheme %v needs a second level", c.Scheme)
		}
		if c.DoDThreshold < 1 {
			return fmt.Errorf("rob: scheme %v needs a positive DoD threshold", c.Scheme)
		}
		if c.RecheckInterval < 1 {
			return fmt.Errorf("rob: recheck interval must be positive")
		}
	}
	if c.Scheme == CountDelayedReactive && c.CountDelay < 0 {
		return fmt.Errorf("rob: negative count delay")
	}
	if c.Scheme == Predictive && c.PredEntries < 1 {
		return fmt.Errorf("rob: predictive scheme needs a predictor table")
	}
	return nil
}

// Stats counts two-level manager behaviour.
type Stats struct {
	MissesObserved  uint64 // L2-missing loads reported
	Allocations     uint64 // second-level grants (first grant of a tenancy)
	PiggybackGrants uint64 // further misses granted under an existing tenancy
	Releases        uint64
	DeniedDoD       uint64 // trained/counted DoD at/above threshold
	DeniedUntrained uint64 // predictive lookup with no trained value (cold start)
	DeniedBusy      uint64 // conditions met but partition held elsewhere
	ServicedMisses  uint64
	DoDSum          uint64 // sum of service-time DoD counts (for the mean)
	OwnedCycles     uint64 // cycles the partition was held by some thread
}

// missRecord tracks one outstanding L2-missing load for scheme decisions.
type missRecord struct {
	slot        int32
	pc          uint64
	hist        uint64
	detectedAt  int64
	nextCheckAt int64
	decided     bool // allocation decision already made (denied or granted)
	wantAlloc   bool // decided-yes but partition was busy; retry
	granted     bool // this miss holds (a share of) the partition grant
	predicted   bool // a trained prediction was consulted (Predictive)
	predBelow   bool // ... and it was below the threshold
}

// TwoLevel owns the per-thread ROB rings and arbitrates the shared
// second-level partition. The pipeline drives it with miss events and a
// per-cycle Tick.
type TwoLevel struct {
	cfg     Config
	rings   []*Ring
	owner   int
	tickRot int // rotating start index for fair grant arbitration, in [0, Threads)
	misses  [][]missRecord
	pred    *DoDPredictor
	stats   Stats

	// Grant lifecycle hooks, all optional (nil = no observer, no cost
	// beyond one nil check at each tenancy transition). Acquired fires
	// when a thread takes the free partition, Piggyback when a further
	// qualifying miss of the owner joins the tenancy, Released when the
	// owner's last granted miss retires (or is squashed) and the
	// partition frees. now is the cycle of the most recent event the
	// manager observed; squash-path releases may therefore be reported
	// up to one cycle early, never late.
	OnGrantAcquired  func(tid int, pc uint64, now int64)
	OnGrantPiggyback func(tid int, pc uint64, now int64)
	OnGrantReleased  func(tid int, now int64)

	// lastNow is the most recent cycle passed to Tick, MissDetected or
	// MissServiced — the timestamp source for hook calls on paths (the
	// squash walk) that do not carry the current cycle.
	lastNow int64

	// ownerGrants counts the owner's granted miss records still alive.
	// The partition is allocated as one atomic unit (§5.2): when a second
	// miss of the owning thread piggybacks on the tenancy, the partition
	// must be held until the *last* granted miss is serviced or squashed,
	// not released when the first one completes.
	ownerGrants int

	// Per-cycle scan bookkeeping: Tick only walks the miss records while
	// some record still needs an evaluation (undecided) or a grant retry
	// (retries). Both are maintained at record insert/decide/remove, and
	// pending[tid] holds the per-thread sum of both so Tick skips threads
	// with nothing actionable.
	undecided int
	retries   int
	pending   []int

	// nextDue[tid] is a conservative lower bound on the earliest
	// nextCheckAt among tid's undecided records: the evaluation scan is
	// skipped until that cycle. It may run early (after removals) but
	// never late, so evaluations happen on exactly the same cycles.
	// globalDue is the same bound across all threads, letting Tick return
	// before even the per-thread loop. FastForward recomputes both exactly
	// after rolling blocked rechecks past a skipped span.
	nextDue   []int64
	globalDue int64
}

// New builds the two-level ROB state.
func New(cfg Config) (*TwoLevel, error) { return NewWithRings(cfg, NewRing) }

// NewWithRings is New with each thread's ring taken from newRing, which
// must return an empty ring of the given physical capacity in the state
// NewRing leaves (a released ring after Reset qualifies).
func NewWithRings(cfg Config, newRing func(capacity int) *Ring) (*TwoLevel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &TwoLevel{
		cfg:     cfg,
		owner:   -1,
		rings:   make([]*Ring, cfg.Threads),
		misses:  make([][]missRecord, cfg.Threads),
		pending: make([]int, cfg.Threads),
		nextDue: make([]int64, cfg.Threads),
	}
	phys := cfg.L1Size + cfg.L2Size
	if cfg.Scheme == SharedSingle {
		// Any single thread may occupy the whole shared pool.
		phys = cfg.L1Size * cfg.Threads
	}
	for i := range t.rings {
		t.rings[i] = newRing(phys)
	}
	if cfg.Scheme == Predictive {
		p, err := NewDoDPredictor(cfg.PredEntries, cfg.PredPathHash, cfg.PredHistBits)
		if err != nil {
			return nil, err
		}
		t.pred = p
	}
	return t, nil
}

// MustNew panics on config errors; for vetted static configs.
func MustNew(cfg Config) *TwoLevel {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the manager configuration.
func (t *TwoLevel) Config() Config { return t.cfg }

// Ring returns thread tid's ROB ring.
func (t *TwoLevel) Ring(tid int) *Ring { return t.rings[tid] }

// Owner returns the thread currently holding the second level, or -1.
func (t *TwoLevel) Owner() int { return t.owner }

// Capacity returns tid's effective ROB capacity this cycle.
func (t *TwoLevel) Capacity(tid int) int {
	if t.cfg.Scheme == SharedSingle {
		return t.cfg.L1Size * t.cfg.Threads
	}
	if t.owner == tid {
		return t.cfg.L1Size + t.cfg.L2Size
	}
	return t.cfg.L1Size
}

// CanDispatch reports whether tid may insert another instruction.
// It is small enough to inline into the pipeline's dispatch gate; the
// shared pool's sum over every ring lives in sharedHasRoom.
func (t *TwoLevel) CanDispatch(tid int) bool {
	if t.cfg.Scheme == SharedSingle {
		return t.sharedHasRoom()
	}
	limit := t.cfg.L1Size
	if t.owner == tid {
		limit += t.cfg.L2Size
	}
	return t.rings[tid].Len() < limit
}

// sharedHasRoom reports whether the SharedSingle pool has a free entry.
func (t *TwoLevel) sharedHasRoom() bool {
	total := 0
	for _, r := range t.rings {
		total += r.Len()
	}
	return total < t.cfg.L1Size*t.cfg.Threads
}

// Stats returns the manager counters.
func (t *TwoLevel) Stats() Stats { return t.stats }

// NextDue returns the earliest cycle at which a Tick could take an
// observable action for an undecided miss record, or math.MaxInt64 when
// none can: the earliest nextCheckAt among undecided records whose
// recheck is not blocked against the rings as they stand. A blocked
// recheck only reschedules itself, and it stays blocked for as long as
// the rings do not move — no dispatch, commit, squash or event — so the
// pipeline's skip-ahead engine may jump past it and let FastForward roll
// it forward in closed form.
func (t *TwoLevel) NextDue() int64 {
	due := int64(math.MaxInt64)
	if t.undecided == 0 {
		return due
	}
	for tid, recs := range t.misses {
		if t.pending[tid] == 0 {
			continue
		}
		for i := range recs {
			rec := &recs[i]
			if !rec.decided && rec.nextCheckAt < due && !t.recheckBlocked(tid, rec) {
				due = rec.nextCheckAt
			}
		}
	}
	return due
}

// PendingRetry reports whether some decided-yes miss is still waiting
// for the partition to free. After any Tick this implies the partition
// is held (a free partition is granted during the same Tick), so a
// retry alone never needs a future wake: the releasing event provides
// one.
func (t *TwoLevel) PendingRetry() bool { return t.retries > 0 }

// FastForward advances the per-cycle bookkeeping over a span of cycles
// the caller has proven to be no-ops for the manager: no miss events, no
// unblocked evaluation due (the span ends at or before NextDue), no
// grant retry that could succeed, no release pending, and rings that do
// not move. lastTick is the last cycle of the skipped span — Tick(lastTick)
// is what the bookkeeping ends up equivalent to — and k is the span
// length.
//
// Every recheck that fell due inside the span was blocked, so each of
// those Ticks only moved it RecheckInterval cycles on; the record lands
// on the first such cycle after lastTick.
func (t *TwoLevel) FastForward(lastTick int64, k int64) {
	t.lastNow = lastTick
	if t.owner >= 0 {
		t.stats.OwnedCycles += uint64(k)
	}
	if t.cfg.Scheme == Baseline || t.cfg.Scheme == SharedSingle {
		return
	}
	t.tickRot = int((int64(t.tickRot) + k) % int64(len(t.misses)))
	if t.undecided == 0 {
		return
	}
	iv := int64(t.cfg.RecheckInterval)
	gd := int64(1) << 62
	for tid, recs := range t.misses {
		if t.pending[tid] == 0 {
			continue
		}
		due := int64(1) << 62
		for i := range recs {
			rec := &recs[i]
			if rec.decided {
				continue
			}
			if rec.nextCheckAt <= lastTick {
				rec.nextCheckAt += iv * ((lastTick - rec.nextCheckAt + iv) / iv)
			}
			if rec.nextCheckAt < due {
				due = rec.nextCheckAt
			}
		}
		t.nextDue[tid] = due
		if due < gd {
			gd = due
		}
	}
	t.globalDue = gd
}

// Predictor returns the DoD predictor (nil unless Predictive).
func (t *TwoLevel) Predictor() *DoDPredictor { return t.pred }

// MissDetected informs the manager that the load in (tid, slot) has been
// discovered to miss in the L2 cache at cycle now. hist is the thread's
// branch history for path-hashed prediction.
func (t *TwoLevel) MissDetected(tid int, slot int32, pc, hist uint64, now int64) {
	t.lastNow = now
	t.stats.MissesObserved++
	rec := missRecord{slot: slot, pc: pc, hist: hist, detectedAt: now, nextCheckAt: now}
	if t.cfg.Scheme == Baseline || t.cfg.Scheme == SharedSingle {
		// These never allocate, but the miss is still tracked so the
		// service-time dependent counts (Figure 1) are observed.
		rec.decided = true
	}
	if t.cfg.Scheme == CountDelayedReactive {
		rec.nextCheckAt = now + int64(t.cfg.CountDelay)
	}
	if t.cfg.Scheme == Predictive {
		dod, trained := t.pred.Predict(pc, hist)
		rec.decided = true
		switch {
		case !trained:
			// Cold start: the table has no value for this load yet, so no
			// prediction was made — this is not an above-threshold denial.
			t.stats.DeniedUntrained++
		case dod < t.cfg.DoDThreshold:
			rec.predicted = true
			rec.predBelow = true
			rec.wantAlloc = true
			t.tryAllocate(tid, &rec)
		default:
			rec.predicted = true
			t.stats.DeniedDoD++
		}
	}
	// Amortized: the list never holds more than the in-flight L2 misses,
	// so it stops growing once it reaches that capacity.
	t.misses[tid] = append(t.misses[tid], rec)
	if !rec.decided {
		t.undecided++
		t.pending[tid]++
		if rec.nextCheckAt < t.nextDue[tid] {
			t.nextDue[tid] = rec.nextCheckAt
		}
		if rec.nextCheckAt < t.globalDue {
			t.globalDue = rec.nextCheckAt
		}
	}
	if rec.wantAlloc {
		t.retries++
		t.pending[tid]++
	}
}

// removeMissAt deletes record i of tid's tracked misses, preserving order
// (arbitration fairness depends on record age) without allocating, and
// returns the removed record.
func (t *TwoLevel) removeMissAt(tid, i int) missRecord {
	recs := t.misses[tid]
	rec := recs[i]
	copy(recs[i:], recs[i+1:])
	t.misses[tid] = recs[:len(recs)-1]
	if !rec.decided {
		t.undecided--
		t.pending[tid]--
	}
	if rec.wantAlloc {
		t.retries--
		t.pending[tid]--
	}
	return rec
}

// grantDone retires one granted miss of tid; the partition is released
// only when the owner's last granted miss is gone (§5.2's atomic unit).
func (t *TwoLevel) grantDone(tid int) {
	if t.owner != tid {
		return
	}
	t.ownerGrants--
	if t.ownerGrants <= 0 {
		t.ownerGrants = 0
		t.owner = -1
		t.stats.Releases++
		if t.OnGrantReleased != nil {
			t.OnGrantReleased(tid, t.lastNow)
		}
	}
}

// MissServiced informs the manager that the load in (tid, slot) has its
// data available at cycle now. It returns the service-time approximate DoD
// count (the quantity plotted in Figures 1/3/7) and ok=false if the load
// was not being tracked.
func (t *TwoLevel) MissServiced(tid int, slot int32, now int64) (dod int, ok bool) {
	t.lastNow = now
	recs := t.misses[tid]
	for i := range recs {
		if recs[i].slot != slot {
			continue
		}
		rec := t.removeMissAt(tid, i)
		if rec.granted {
			// The shadow this grant was covering is over. The partition is
			// relinquished once the owner's last granted miss retires, so
			// it rotates across missing threads without cutting short a
			// piggybacked grant's still-live shadow.
			t.grantDone(tid)
		}
		dod = ApproxDoD(t.rings[tid], slot)
		t.stats.ServicedMisses++
		t.stats.DoDSum += uint64(dod)
		if t.cfg.Scheme == Predictive {
			// Verification + retraining (§4.2): the actual count is always
			// taken and stored for the next dynamic instance. Only trained
			// lookups are verified — a cold-start miss made no prediction.
			if rec.predicted {
				actualBelow := dod < t.cfg.DoDThreshold
				t.pred.Verify(rec.predBelow == actualBelow)
			}
			t.pred.Train(rec.pc, rec.hist, dod)
		}
		t.maybeRelease()
		return dod, true
	}
	return 0, false
}

// EntrySquashed drops any miss record attached to (tid, slot); call it for
// every squashed entry during a branch-misprediction walk. Squashing the
// granting miss releases the partition.
func (t *TwoLevel) EntrySquashed(tid int, slot int32) {
	for i := 0; i < len(t.misses[tid]); {
		if t.misses[tid][i].slot != slot {
			i++
			continue
		}
		rec := t.removeMissAt(tid, i)
		if rec.granted {
			t.grantDone(tid)
		}
	}
}

// Tick runs the per-cycle scheme evaluation: reactive condition checks,
// pending-allocation retries and second-level release.
func (t *TwoLevel) Tick(now int64) {
	t.lastNow = now
	if t.owner >= 0 {
		t.stats.OwnedCycles++
	}
	if t.cfg.Scheme == Baseline || t.cfg.Scheme == SharedSingle {
		return
	}
	if t.tickRot++; t.tickRot == len(t.misses) {
		t.tickRot = 0
	}
	if t.undecided == 0 && t.retries == 0 {
		// Nothing needs evaluation or a grant retry; skip the record scan
		// (the common steady state on execution-bound phases).
		t.maybeRelease()
		return
	}
	n := len(t.misses)
	retryable := t.owner == -1 && t.retries > 0
	if !retryable && now < t.globalDue {
		// Every undecided record's next check lies in the future and no
		// grant retry can proceed; the whole scan would be a no-op.
		t.maybeRelease()
		return
	}
	tid := t.tickRot
	for i := 0; i < n; i++ {
		if i > 0 {
			tid++
			if tid == n {
				tid = 0
			}
		}
		if t.pending[tid] == 0 {
			continue
		}
		if !retryable && now < t.nextDue[tid] {
			continue
		}
		recs := t.misses[tid]
		due := int64(1) << 62
		for j := range recs {
			rec := &recs[j]
			if rec.decided {
				if rec.wantAlloc && t.owner == -1 {
					t.tryAllocate(tid, rec)
					if !rec.wantAlloc {
						t.retries--
						t.pending[tid]--
					}
				}
				continue
			}
			if now < rec.nextCheckAt {
				if rec.nextCheckAt < due {
					due = rec.nextCheckAt
				}
				continue
			}
			t.evaluate(tid, rec, now)
			if !rec.decided && rec.nextCheckAt < due {
				due = rec.nextCheckAt
			}
		}
		t.nextDue[tid] = due
	}
	gd := int64(1) << 62
	for j := range t.nextDue {
		if t.pending[j] > 0 && t.nextDue[j] < gd {
			gd = t.nextDue[j]
		}
	}
	t.globalDue = gd
	t.maybeRelease()
}

// recheckBlocked reports whether rec's reactive structural condition
// fails against tid's ring as it stands, so an evaluation now would only
// reschedule the recheck. It is the one statement of that condition:
// evaluate acts on it and NextDue wakes only for records it clears.
func (t *TwoLevel) recheckBlocked(tid int, rec *missRecord) bool {
	ring := t.rings[tid]
	switch t.cfg.Scheme {
	case Reactive:
		return !ring.IsOldest(rec.slot) || ring.Len() < t.cfg.L1Size
	case RelaxedReactive:
		return !ring.IsOldest(rec.slot)
	case CountDelayedReactive:
		// Delay already encoded in nextCheckAt; no structural conditions.
		return false
	case Baseline, Predictive, SharedSingle:
		// Undecided records exist only under the reactive schemes;
		// Predictive decides at MissDetected and Baseline/SharedSingle
		// never allocate a second level.
		panic("rob: recheck under non-reactive scheme " + t.cfg.Scheme.String())
	default:
		panic("rob: recheck under unknown scheme")
	}
}

// evaluate runs one reactive-condition check for a tracked miss.
func (t *TwoLevel) evaluate(tid int, rec *missRecord, now int64) {
	if t.recheckBlocked(tid, rec) {
		rec.nextCheckAt = now + int64(t.cfg.RecheckInterval)
		return
	}
	dod := ApproxDoD(t.rings[tid], rec.slot)
	rec.decided = true
	t.undecided--
	t.pending[tid]--
	if dod >= t.cfg.DoDThreshold {
		t.stats.DeniedDoD++
		return
	}
	rec.wantAlloc = true
	t.tryAllocate(tid, rec)
	if rec.wantAlloc {
		t.retries++
		t.pending[tid]++
	}
}

func (t *TwoLevel) tryAllocate(tid int, rec *missRecord) {
	if t.owner == tid {
		// A further qualifying miss of the owning thread shares the
		// existing tenancy; the partition is then held until the last
		// granted miss retires (see grantDone).
		rec.wantAlloc = false
		rec.granted = true
		t.ownerGrants++
		t.stats.PiggybackGrants++
		if t.OnGrantPiggyback != nil {
			t.OnGrantPiggyback(tid, rec.pc, t.lastNow)
		}
		return
	}
	if t.owner != -1 {
		t.stats.DeniedBusy++
		return
	}
	t.owner = tid
	t.ownerGrants = 1
	t.stats.Allocations++
	rec.wantAlloc = false
	rec.granted = true
	if t.OnGrantAcquired != nil {
		t.OnGrantAcquired(tid, rec.pc, t.lastNow)
	}
}

// maybeRelease is a backstop: if the holder somehow has no tracked misses
// left (e.g. all squashed), relinquish. The normal release happens when
// the owner's last granted miss is serviced or squashed (grantDone).
func (t *TwoLevel) maybeRelease() {
	if t.owner < 0 || len(t.misses[t.owner]) > 0 {
		return
	}
	tid := t.owner
	t.owner = -1
	t.ownerGrants = 0
	t.stats.Releases++
	if t.OnGrantReleased != nil {
		t.OnGrantReleased(tid, t.lastNow)
	}
}

// OutstandingMisses returns how many L2-missing loads are tracked for tid.
func (t *TwoLevel) OutstandingMisses(tid int) int { return len(t.misses[tid]) }

// CheckInvariants recounts the incremental record bookkeeping (tests only).
func (t *TwoLevel) CheckInvariants() error {
	undecided, retries, granted := 0, 0, 0
	for tid := range t.misses {
		perThread := 0
		for i := range t.misses[tid] {
			rec := &t.misses[tid][i]
			if !rec.decided {
				undecided++
				perThread++
			}
			if rec.wantAlloc {
				retries++
				perThread++
			}
			if rec.granted {
				if t.owner != tid {
					return fmt.Errorf("rob: thread %d holds a grant but owner is %d", tid, t.owner)
				}
				granted++
			}
		}
		if perThread != t.pending[tid] {
			return fmt.Errorf("rob: pending[%d]=%d but %d actionable records", tid, t.pending[tid], perThread)
		}
		for i := range t.misses[tid] {
			rec := &t.misses[tid][i]
			if !rec.decided && rec.nextCheckAt < t.nextDue[tid] {
				return fmt.Errorf("rob: nextDue[%d]=%d misses record due at %d", tid, t.nextDue[tid], rec.nextCheckAt)
			}
		}
	}
	if undecided != t.undecided {
		return fmt.Errorf("rob: undecided counter %d but %d undecided records", t.undecided, undecided)
	}
	if retries != t.retries {
		return fmt.Errorf("rob: retries counter %d but %d pending records", t.retries, retries)
	}
	if t.owner >= 0 && granted != t.ownerGrants {
		return fmt.Errorf("rob: ownerGrants %d but %d granted records", t.ownerGrants, granted)
	}
	if t.owner < 0 && t.ownerGrants != 0 {
		return fmt.Errorf("rob: no owner but ownerGrants %d", t.ownerGrants)
	}
	return nil
}
