package policy

import "testing"

const iqSize = 64

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{ICOUNT, DCRA, STALL, FLUSH} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip of %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DCRA, 0.5, iqSize); err == nil {
		t.Error("alpha < 1 accepted")
	}
	if _, err := New(DCRA, 2, 0); err == nil {
		t.Error("empty issue queue accepted")
	}
	if _, err := New(Kind(99), 2, iqSize); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestICountOrdering(t *testing.T) {
	p := MustNew(ICOUNT, 2, iqSize)
	snaps := []Snapshot{
		{FrontEnd: 10, IQ: 5}, // total 15
		{FrontEnd: 0, IQ: 2},  // total 2 -> first
		{FrontEnd: 4, IQ: 4},  // total 8
	}
	order := p.FetchOrder(snaps, nil)
	if len(order) != 3 || order[0] != 1 {
		t.Fatalf("order = %v", order)
	}
	if order[1] != 2 || order[2] != 0 {
		t.Fatalf("order = %v", order)
	}
}

func TestFinishedThreadsExcluded(t *testing.T) {
	p := MustNew(ICOUNT, 2, iqSize)
	snaps := []Snapshot{{Finished: true}, {}}
	order := p.FetchOrder(snaps, nil)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestTieBreakRotates(t *testing.T) {
	p := MustNew(ICOUNT, 2, iqSize)
	snaps := []Snapshot{{}, {}, {}, {}}
	first := map[int]bool{}
	for i := 0; i < 8; i++ {
		order := p.FetchOrder(snaps, nil)
		first[order[0]] = true
	}
	if len(first) < 4 {
		t.Fatalf("tie-break favoured a subset: %v", first)
	}
}

func TestStallGatesL2MissThreads(t *testing.T) {
	p := MustNew(STALL, 2, iqSize)
	snaps := []Snapshot{{PendingL2Miss: true}, {}}
	order := p.FetchOrder(snaps, nil)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("order = %v", order)
	}
	if p.FlushOnL2Miss() {
		t.Fatal("STALL must not flush")
	}
}

func TestFlushPolicy(t *testing.T) {
	p := MustNew(FLUSH, 2, iqSize)
	if !p.FlushOnL2Miss() {
		t.Fatal("FLUSH must flush")
	}
	snaps := []Snapshot{{PendingL2Miss: true}, {}}
	if order := p.FetchOrder(snaps, nil); len(order) != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestDCRAIQShares(t *testing.T) {
	p := MustNew(DCRA, 2, iqSize)
	// Two fast, two slow active threads: fast share 64/(2+2*2)=10,
	// slow share 21.
	snaps := []Snapshot{
		{IQ: 9},                      // fast, under share
		{IQ: 10},                     // fast, at share
		{IQ: 20, PendingDMiss: true}, // slow, under share
		{IQ: 21, PendingDMiss: true}, // slow, at share
	}
	p.Observe(snaps)
	if !p.MayDispatchIQ(0, snaps) {
		t.Error("fast thread under share refused")
	}
	if p.MayDispatchIQ(1, snaps) {
		t.Error("fast thread at share allowed")
	}
	if !p.MayDispatchIQ(2, snaps) {
		t.Error("slow thread under share refused")
	}
	if p.MayDispatchIQ(3, snaps) {
		t.Error("slow thread at share allowed")
	}
}

func TestDCRAOwnerDoubleBudget(t *testing.T) {
	p := MustNew(DCRA, 2, iqSize)
	snaps := []Snapshot{
		{IQ: 30, PendingDMiss: true, OwnsROB: true},
		{IQ: 5, PendingDMiss: true},
		{IQ: 5},
		{IQ: 5},
	}
	// Slow share = 2*64/(2+2*2) = 21; the owner gets 2x = 42.
	p.Observe(snaps)
	if !p.MayDispatchIQ(0, snaps) {
		t.Error("owner refused within doubled budget")
	}
	snaps[0].IQ = 45
	p.Observe(snaps)
	if p.MayDispatchIQ(0, snaps) {
		t.Error("owner allowed beyond doubled budget")
	}
}

func TestDCRAOwnerFetchPriority(t *testing.T) {
	p := MustNew(DCRA, 2, iqSize)
	snaps := []Snapshot{
		{FrontEnd: 20, IQ: 20, OwnsROB: true, PendingDMiss: true},
		{FrontEnd: 0, IQ: 0},
	}
	for i := 0; i < 4; i++ {
		order := p.FetchOrder(snaps, nil)
		if order[0] != 0 {
			t.Fatalf("owner not first: %v", order)
		}
	}
}

func TestDCRAInactiveThreadsDoNotDilute(t *testing.T) {
	p := MustNew(DCRA, 2, iqSize)
	// Only thread 0 is active for the IQ; its share is the whole queue.
	snaps := []Snapshot{
		{IQ: 50},
		{IQ: 0},
		{IQ: 0},
		{IQ: 0},
	}
	p.Observe(snaps)
	if !p.MayDispatchIQ(0, snaps) {
		t.Error("sole active thread capped as if sharing")
	}
}

func TestNonDCRANeverRefusesDispatch(t *testing.T) {
	for _, k := range []Kind{ICOUNT, STALL, FLUSH} {
		p := MustNew(k, 2, iqSize)
		snaps := []Snapshot{{IQ: 63}, {IQ: 1}}
		if !p.MayDispatchIQ(0, snaps) {
			t.Errorf("%v refused dispatch", k)
		}
	}
}

func TestNames(t *testing.T) {
	for _, k := range []Kind{ICOUNT, DCRA, STALL, FLUSH} {
		p := MustNew(k, 2, iqSize)
		if p.Name() != k.String() {
			t.Errorf("%v name %q", k, p.Name())
		}
	}
}

func TestMLPPolicyGating(t *testing.T) {
	p := MustNew(MLP, 2, iqSize)
	snaps := []Snapshot{
		{PendingL2Miss: true, PredictedMLP: 0}, // isolated miss: gated
		{PendingL2Miss: true, PredictedMLP: 4}, // parallel episode: fetches
		{},                                     // no miss: fetches
	}
	order := p.FetchOrder(snaps, nil)
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	for _, tid := range order {
		if tid == 0 {
			t.Fatal("isolated-miss thread not gated")
		}
	}
	if p.FlushOnL2Miss() || !p.MayDispatchIQ(0, snaps) {
		t.Fatal("MLP policy must not flush or cap dispatch")
	}
}
