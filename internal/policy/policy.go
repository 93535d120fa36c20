// Package policy implements the SMT front-end fetch and shared-resource
// allocation policies the paper uses and compares against: ICOUNT [13],
// STALL and FLUSH [12], and DCRA [3], the paper's baseline for all
// experiments. The pipeline consults the policy for (a) the order in which
// threads may fetch each cycle, (b) whether a thread may fetch at all, and
// (c) whether a thread may consume one more unit of a capped shared
// resource at dispatch.
package policy

import (
	"fmt"
)

// Kind selects a policy implementation.
type Kind uint8

const (
	ICOUNT Kind = iota
	DCRA
	STALL
	FLUSH
	// MLP is the MLP-aware fetch policy of Eyerman & Eeckhout [25]: a
	// thread with an outstanding L2 miss keeps its fetch slots only while
	// its current miss episode is predicted to contain overlapped misses.
	MLP

	numKinds
)

var kindNames = [numKinds]string{"icount", "dcra", "stall", "flush", "mlp"}

// String returns the policy name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("policy(%d)", uint8(k))
}

// ParseKind converts a policy name to its Kind.
func ParseKind(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("policy: unknown policy %q", name)
}

// Snapshot is the per-thread state the policy decides from, rebuilt by the
// pipeline every cycle.
type Snapshot struct {
	FrontEnd      int // instructions fetched but not yet dispatched
	IQ            int // issue-queue entries held
	PendingDMiss  bool
	PendingL2Miss bool
	PredictedMLP  int  // predicted overlapped misses of the current episode (MLP policy)
	OwnsROB       bool // holds the second-level ROB partition
	Finished      bool // thread reached its instruction budget
}

// Policy is consulted by the pipeline front end. Resource control follows
// DCRA's actual design point: a thread exceeding its share of a shared
// resource is excluded from FETCHING until it drains back under — already
// fetched instructions still dispatch, so shares can be overshot by the
// front-end backlog. That overshoot is what lets across-the-board large
// ROBs clog the shared IQ and register files (the paper's Baseline_128).
type Policy interface {
	// Name returns the policy's canonical name.
	Name() string
	// MayFetch reports whether a thread in state s may fetch this cycle;
	// FetchOrder lists exactly the threads it admits.
	MayFetch(s *Snapshot) bool
	// FetchOrder fills order with the admitted thread indices in
	// fetch-priority order and returns it. The order is a stable sort, so
	// restricted to any subset of threads it is that subset's order.
	FetchOrder(snaps []Snapshot, order []int) []int
	// Observe tells the policy that snaps changed. The pipeline calls it
	// after every rebuild, and when dispatch raises a thread's IQ count
	// from zero; MayDispatchIQ decides from what the last call saw, plus
	// snaps[tid] itself.
	Observe(snaps []Snapshot)
	// MayDispatchIQ reports whether tid may insert one more instruction
	// into the shared issue queue (DCRA's hard per-thread sharing
	// counters; the other policies never refuse).
	MayDispatchIQ(tid int, snaps []Snapshot) bool
	// FlushOnL2Miss reports whether the pipeline should squash the
	// instructions younger than a load that misses in the L2 and gate the
	// thread's fetch until the miss returns (the FLUSH policy [12]).
	FlushOnL2Miss() bool
	// SkipCycles stands in for the k FetchOrder calls a span of provably
	// idle cycles on a threads-thread machine would have made: the
	// pipeline's skip-ahead engine calls it instead, and afterwards the
	// policy must be in exactly the state those calls would have left it
	// in, or fetch fairness diverges from the naive ticker.
	SkipCycles(k int64, threads int)
}

// New constructs a policy. alpha is DCRA's slow-thread share multiplier
// (ignored by the others); 2 reproduces DCRA's qualitative behaviour.
// iqSize is the shared issue queue DCRA divides, the one resource it
// caps.
func New(kind Kind, alpha float64, iqSize int) (Policy, error) {
	switch kind {
	case ICOUNT:
		return &icount{}, nil
	case STALL:
		return &stall{}, nil
	case FLUSH:
		return &flush{}, nil
	case MLP:
		return &mlpAware{}, nil
	case DCRA:
		if alpha < 1 {
			return nil, fmt.Errorf("policy: DCRA alpha %g must be >= 1", alpha)
		}
		if iqSize < 1 {
			return nil, fmt.Errorf("policy: DCRA needs a positive issue-queue size, got %d", iqSize)
		}
		return &dcra{alpha: alpha, iqSize: iqSize}, nil
	}
	return nil, fmt.Errorf("policy: unknown kind %d", kind)
}

// MustNew panics on error; for vetted static configs.
func MustNew(kind Kind, alpha float64, iqSize int) Policy {
	p, err := New(kind, alpha, iqSize)
	if err != nil {
		panic(err)
	}
	return p
}

// rotor supplies a rotating tie-break offset so that equal-count threads
// share fetch slots fairly instead of always yielding to the lowest id.
type rotor struct{ rr int }

func (r *rotor) next(n int) int {
	if n == 0 {
		return 0
	}
	r.rr++
	if r.rr >= n {
		r.rr = 0
	}
	return r.rr
}

// SkipCycles advances the rotor as k FetchOrder calls on a
// threads-thread machine would (one next() per call). Every built-in
// policy embeds the rotor and carries no other per-cycle state, so this
// single method is every policy's SkipCycles.
func (r *rotor) SkipCycles(k int64, threads int) {
	if threads <= 0 || k <= 0 {
		return
	}
	r.rr = int((int64(r.rr) + k) % int64(threads))
}

// Observe is a no-op: only DCRA keeps state derived from the snapshots.
func (*rotor) Observe([]Snapshot) {}

// icountOrder sorts runnable threads by fewest in-flight front-end+IQ
// instructions — the ICOUNT heuristic every policy here reuses for
// ordering. Candidates are enumerated starting at a rotating offset and
// each is inserted behind every candidate whose count it does not beat,
// so equal-count threads keep their rotated order (a stable sort), with
// each count read once and nothing boxed.
func icountOrder(snaps []Snapshot, order []int, off int, skip func(*Snapshot) bool) []int {
	order = order[:0]
	n := len(snaps)
	var keyBuf [8]int
	keys := keyBuf[:0]
	t := off - 1 // off is a rotor value, in [0, n)
	for i := 0; i < n; i++ {
		if t++; t == n {
			t = 0
		}
		s := &snaps[t]
		if s.Finished || (skip != nil && skip(s)) {
			continue
		}
		k := s.FrontEnd + s.IQ
		j := len(order)
		order = append(order, t)
		keys = append(keys, k)
		for ; j > 0 && keys[j-1] > k; j-- {
			order[j], keys[j] = order[j-1], keys[j-1]
		}
		order[j], keys[j] = t, k
	}
	return order
}

// icount is the ICOUNT 2.8 fetch policy: priority to threads with the
// fewest instructions in the front end and issue queue; no resource caps.
type icount struct{ rotor }

func (*icount) Name() string              { return "icount" }
func (*icount) MayFetch(s *Snapshot) bool { return !s.Finished }
func (p *icount) FetchOrder(snaps []Snapshot, order []int) []int {
	return icountOrder(snaps, order, p.next(len(snaps)), nil)
}
func (*icount) MayDispatchIQ(int, []Snapshot) bool { return true }
func (*icount) FlushOnL2Miss() bool                { return false }

// stall is ICOUNT plus L2-miss fetch gating: a thread with an outstanding
// L2 miss fetches nothing until the miss returns.
type stall struct{ rotor }

func (*stall) Name() string              { return "stall" }
func (*stall) MayFetch(s *Snapshot) bool { return !s.Finished && !l2Gated(s) }
func (p *stall) FetchOrder(snaps []Snapshot, order []int) []int {
	return icountOrder(snaps, order, p.next(len(snaps)), l2Gated)
}
func (*stall) MayDispatchIQ(int, []Snapshot) bool { return true }
func (*stall) FlushOnL2Miss() bool                { return false }

// l2Gated holds a thread with an outstanding L2 miss (STALL, FLUSH).
func l2Gated(s *Snapshot) bool { return s.PendingL2Miss }

// flush extends STALL by squashing the instructions already dispatched
// after the missing load, freeing the shared IQ for other threads.
type flush struct{ rotor }

func (*flush) Name() string              { return "flush" }
func (*flush) MayFetch(s *Snapshot) bool { return !s.Finished && !l2Gated(s) }
func (p *flush) FetchOrder(snaps []Snapshot, order []int) []int {
	return icountOrder(snaps, order, p.next(len(snaps)), l2Gated)
}
func (*flush) MayDispatchIQ(int, []Snapshot) bool { return true }
func (*flush) FlushOnL2Miss() bool                { return true }

// mlpAware gates fetch like STALL, but only for threads whose current
// miss episode is predicted to expose no memory-level parallelism —
// threads with overlapped misses ahead keep fetching to uncover them [25].
type mlpAware struct{ rotor }

func (*mlpAware) Name() string              { return "mlp" }
func (*mlpAware) MayFetch(s *Snapshot) bool { return !s.Finished && !mlpGated(s) }
func (p *mlpAware) FetchOrder(snaps []Snapshot, order []int) []int {
	return icountOrder(snaps, order, p.next(len(snaps)), mlpGated)
}
func (*mlpAware) MayDispatchIQ(int, []Snapshot) bool { return true }
func (*mlpAware) FlushOnL2Miss() bool                { return false }

// mlpGated holds a thread whose current miss episode is predicted to
// expose no memory-level parallelism.
func mlpGated(s *Snapshot) bool { return s.PendingL2Miss && s.PredictedMLP <= 1 }

// dcra approximates Dynamically Controlled Resource Allocation [3]:
// threads are "slow" for the shared resources while they have a pending
// data-cache miss and "active" while they are using the resource (or still
// running). With F fast-active and S slow-active sharers of a resource of
// size E, a fast thread may hold up to E/(F+alpha*S) units and a slow
// thread alpha times that — slow threads receive a larger share so that
// their misses can overlap (MLP), which is DCRA's defining property.
type dcra struct {
	rotor
	alpha  float64
	iqSize int

	// limits[slow][owns] is the IQ share of a sharer with (slow) or
	// without a pending data-cache miss, holding the second-level ROB
	// (owns) or not, as of the last Observe; 0 when nobody shares.
	limits [2][2]int
}

func (*dcra) Name() string              { return "dcra" }
func (*dcra) MayFetch(s *Snapshot) bool { return !s.Finished }

func (d *dcra) FetchOrder(snaps []Snapshot, order []int) []int {
	order = icountOrder(snaps, order, d.next(len(snaps)), nil)
	// The second-level ROB owner fetches first: the grant exists to
	// sustain dispatch through the miss shadow, and ICOUNT would
	// otherwise rank the owner last (it accumulates in-flight state by
	// design) and starve the extension it was just given.
	for i, t := range order {
		if snaps[t].OwnsROB && i > 0 {
			copy(order[1:i+1], order[:i])
			order[0] = t
			break
		}
	}
	return order
}

// Observe counts the IQ's sharers — unfinished threads holding entries —
// and derives each kind of sharer's limit from the counts. A thread that
// holds no entry is never over its share (every limit is at least 1), so
// the sharers a query would add for itself never change an answer, and
// a count only moves when a snapshot is rebuilt or a thread's IQ count
// leaves zero.
func (d *dcra) Observe(snaps []Snapshot) {
	fast, slow := 0, 0
	for t := range snaps {
		o := &snaps[t]
		if o.Finished || o.IQ == 0 {
			continue
		}
		if o.PendingDMiss {
			slow++
		} else {
			fast++
		}
	}
	den := float64(fast) + d.alpha*float64(slow)
	if den <= 0 {
		d.limits = [2][2]int{}
		return
	}
	for s := range d.limits {
		for o := range d.limits[s] {
			share := float64(d.iqSize) / den
			if s == 1 {
				share *= d.alpha
			}
			if o == 1 {
				// The second-level ROB grant comes with a doubled IQ
				// budget: the DoD threshold guarantees the extra shadow
				// instructions mostly issue and leave quickly (paper §1),
				// so the extended window needs headroom without being
				// allowed to clog the queue outright.
				share *= 2
			}
			d.limits[s][o] = max(int(share), 1)
		}
	}
}

// MayDispatchIQ enforces DCRA's hard per-thread issue-queue sharing
// counters. Shares follow the DCRA sharing model: with F fast-active and
// S slow-active sharers of a pool of size E, a fast thread's share is
// E/(F+alpha*S) and a slow thread's alpha times that. The second-level
// ROB owner gets a doubled budget: the DoD threshold guarantees its extra
// shadow instructions mostly issue and leave quickly (paper §1, §4).
// Only the IQ is share-capped: register pressure is governed by natural
// free-list contention (plus the owner's reserve in the pipeline), which
// lets a slow thread consume renaming capacity the fast threads are not
// using — DCRA's defining generosity toward threads with misses.
func (d *dcra) MayDispatchIQ(tid int, snaps []Snapshot) bool {
	s := &snaps[tid]
	if s.IQ == 0 {
		return true
	}
	limit := d.limits[b2i(s.PendingDMiss)][b2i(s.OwnsROB)]
	return limit == 0 || s.IQ < limit
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (*dcra) FlushOnL2Miss() bool { return false }
