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
	// FetchOrder fills order with thread indices in fetch-priority order,
	// excluding threads that must not fetch this cycle, and returns it.
	FetchOrder(snaps []Snapshot, order []int) []int
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

// icountOrder sorts runnable threads by fewest in-flight front-end+IQ
// instructions — the ICOUNT heuristic every policy here reuses for
// ordering. Candidates are enumerated starting at a rotating offset so
// the stable sort breaks count ties fairly.
func icountOrder(snaps []Snapshot, order []int, off int, skip func(*Snapshot) bool) []int {
	order = order[:0]
	n := len(snaps)
	t := off - 1 // off is a rotor value, in [0, n)
	for i := 0; i < n; i++ {
		if t++; t == n {
			t = 0
		}
		if snaps[t].Finished || (skip != nil && skip(&snaps[t])) {
			continue
		}
		order = append(order, t)
	}
	// Stable insertion sort: equal-count threads keep their rotated
	// enumeration order, and nothing is boxed — sort.SliceStable here
	// allocated twice per simulated cycle.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			sa := snaps[order[j-1]].FrontEnd + snaps[order[j-1]].IQ
			sb := snaps[order[j]].FrontEnd + snaps[order[j]].IQ
			if sb >= sa {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return order
}

// icount is the ICOUNT 2.8 fetch policy: priority to threads with the
// fewest instructions in the front end and issue queue; no resource caps.
type icount struct{ rotor }

func (*icount) Name() string { return "icount" }
func (p *icount) FetchOrder(snaps []Snapshot, order []int) []int {
	return icountOrder(snaps, order, p.next(len(snaps)), nil)
}
func (*icount) MayDispatchIQ(int, []Snapshot) bool { return true }
func (*icount) FlushOnL2Miss() bool                { return false }

// stall is ICOUNT plus L2-miss fetch gating: a thread with an outstanding
// L2 miss fetches nothing until the miss returns.
type stall struct{ rotor }

func (*stall) Name() string { return "stall" }
func (p *stall) FetchOrder(snaps []Snapshot, order []int) []int {
	return icountOrder(snaps, order, p.next(len(snaps)), func(s *Snapshot) bool { return s.PendingL2Miss })
}
func (*stall) MayDispatchIQ(int, []Snapshot) bool { return true }
func (*stall) FlushOnL2Miss() bool                { return false }

// flush extends STALL by squashing the instructions already dispatched
// after the missing load, freeing the shared IQ for other threads.
type flush struct{ rotor }

func (*flush) Name() string { return "flush" }
func (p *flush) FetchOrder(snaps []Snapshot, order []int) []int {
	return icountOrder(snaps, order, p.next(len(snaps)), func(s *Snapshot) bool { return s.PendingL2Miss })
}
func (*flush) MayDispatchIQ(int, []Snapshot) bool { return true }
func (*flush) FlushOnL2Miss() bool                { return true }

// mlpAware gates fetch like STALL, but only for threads whose current
// miss episode is predicted to expose no memory-level parallelism —
// threads with overlapped misses ahead keep fetching to uncover them [25].
type mlpAware struct{ rotor }

func (*mlpAware) Name() string { return "mlp" }
func (p *mlpAware) FetchOrder(snaps []Snapshot, order []int) []int {
	return icountOrder(snaps, order, p.next(len(snaps)), func(s *Snapshot) bool {
		return s.PendingL2Miss && s.PredictedMLP <= 1
	})
}
func (*mlpAware) MayDispatchIQ(int, []Snapshot) bool { return true }
func (*mlpAware) FlushOnL2Miss() bool                { return false }

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
}

func (*dcra) Name() string { return "dcra" }

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
	return !d.overShare(&snaps[tid], snaps)
}

func (d *dcra) overShare(s *Snapshot, snaps []Snapshot) bool {
	fast, slow := 0, 0
	for t := range snaps {
		o := &snaps[t]
		if o.Finished {
			continue
		}
		if o.IQ == 0 && o != s {
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
		return false
	}
	share := float64(d.iqSize) / den
	if s.PendingDMiss {
		share *= d.alpha
	}
	if s.OwnsROB {
		// The second-level ROB grant comes with a doubled IQ budget:
		// the DoD threshold guarantees the extra shadow instructions
		// mostly issue and leave quickly (paper §1), so the extended
		// window needs headroom without being allowed to clog the
		// queue outright.
		share *= 2
	}
	limit := int(share)
	if limit < 1 {
		limit = 1
	}
	return s.IQ >= limit
}

func (*dcra) FlushOnL2Miss() bool { return false }
