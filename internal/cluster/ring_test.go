package cluster

import (
	"reflect"
	"testing"
)

func threeNodes() []string {
	return []string{"http://node-a:1", "http://node-b:1", "http://node-c:1"}
}

func TestRingOwnersDeterministicAndDistinct(t *testing.T) {
	r1, err := NewRing(threeNodes(), 64)
	if err != nil {
		t.Fatal(err)
	}
	// A second ring built from the same members (different order) must
	// agree on every routing decision — workers and the coordinator
	// each build their own.
	r2, err := NewRing([]string{"http://node-c:1", "http://node-a:1", "http://node-b:1"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k1", "k2", "deadbeef", "0000", "zzzz"} {
		o1 := r1.Owners(key, 0)
		o2 := r2.Owners(key, 0)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("rings disagree for %q: %v vs %v", key, o1, o2)
		}
		if len(o1) != 3 {
			t.Fatalf("want all 3 distinct owners, got %v", o1)
		}
		seen := map[string]bool{}
		for _, n := range o1 {
			if seen[n] {
				t.Fatalf("duplicate owner in %v", o1)
			}
			seen[n] = true
		}
		if got := r1.Owners(key, 2); len(got) != 2 || got[0] != o1[0] || got[1] != o1[1] {
			t.Fatalf("Owners(_, 2) = %v, want prefix of %v", got, o1)
		}
	}
}

func TestRingDeadNodeDemoted(t *testing.T) {
	r, _ := NewRing(threeNodes(), 64)
	key := "some-content-hash"
	before := r.Owners(key, 0)
	primary := before[0]
	if !r.SetAlive(primary, false) {
		t.Fatal("SetAlive(false) reported no change")
	}
	after := r.Owners(key, 0)
	if after[0] == primary {
		t.Fatalf("dead primary still first: %v", after)
	}
	if after[len(after)-1] != primary {
		t.Fatalf("dead node should trail as last resort: %v", after)
	}
	if r.AliveCount() != 2 {
		t.Fatalf("alive count %d", r.AliveCount())
	}
	// Revival restores the original preference order.
	r.SetAlive(primary, true)
	if got := r.Owners(key, 0); !reflect.DeepEqual(got, before) {
		t.Fatalf("after revival %v, want %v", got, before)
	}
	if r.SetAlive("http://not-a-member:9", false) {
		t.Fatal("non-member SetAlive reported a change")
	}
}

func TestRingBalance(t *testing.T) {
	r, _ := NewRing(threeNodes(), 64)
	nodes, shares := r.Ownership(4096)
	if len(nodes) != 3 {
		t.Fatalf("nodes %v", nodes)
	}
	var sum float64
	for i, s := range shares {
		sum += s
		// With 64 vnodes each, shares should be within a loose band of
		// the ideal 1/3.
		if s < 0.15 || s > 0.55 {
			t.Fatalf("node %s owns %.3f of the keyspace — ring is unbalanced (%v %v)", nodes[i], s, nodes, shares)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %f", sum)
	}
}

func TestRingRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

// ownersDistinct fails the test if any key's owner list repeats a
// physical node — the invariant that keeps replication and placement
// repair from counting one copy twice.
func ownersDistinct(t *testing.T, r *Ring, keys []string) {
	t.Helper()
	for _, key := range keys {
		owners := r.Owners(key, 0)
		seen := map[string]bool{}
		for _, n := range owners {
			if seen[n] {
				t.Fatalf("key %q: duplicate owner in %v", key, owners)
			}
			seen[n] = true
		}
		if len(owners) != len(r.Nodes()) {
			t.Fatalf("key %q: owners %v does not cover the %d members", key, owners, len(r.Nodes()))
		}
	}
}

var ringProbeKeys = []string{"k1", "k2", "deadbeef", "0000", "zzzz", "some-content-hash"}

// TestRingAddRemove pins the membership-change table: each step mutates
// the ring and the result must equal a fresh ring built from the final
// member list — vnodes of removed-then-readded members must interleave
// exactly as if the node had always been there, and Owners must never
// repeat a physical node.
func TestRingAddRemove(t *testing.T) {
	a, b, c, d := "http://node-a:1", "http://node-b:1", "http://node-c:1", "http://node-d:1"
	steps := []struct {
		name    string
		op      func(r *Ring) bool
		wantOK  bool
		members []string
	}{
		{"add new node", func(r *Ring) bool { return r.Add(d) }, true, []string{a, b, c, d}},
		{"add existing node", func(r *Ring) bool { return r.Add(d) }, false, []string{a, b, c, d}},
		{"remove member", func(r *Ring) bool { return r.Remove(b) }, true, []string{a, c, d}},
		{"remove non-member", func(r *Ring) bool { return r.Remove(b) }, false, []string{a, c, d}},
		{"re-add removed member", func(r *Ring) bool { return r.Add(b) }, true, []string{a, b, c, d}},
		{"remove again", func(r *Ring) bool { return r.Remove(d) }, true, []string{a, b, c}},
		{"add empty name", func(r *Ring) bool { return r.Add("") }, false, []string{a, b, c}},
	}
	r, err := NewRing(threeNodes(), 64)
	if err != nil {
		t.Fatal(err)
	}
	var fired [][]string
	r.OnChange(func(before []string) { fired = append(fired, before) })
	for _, step := range steps {
		prev := r.Nodes()
		fired = nil
		if got := step.op(r); got != step.wantOK {
			t.Fatalf("%s: reported %v, want %v", step.name, got, step.wantOK)
		}
		if got := r.Nodes(); !reflect.DeepEqual(got, step.members) {
			t.Fatalf("%s: members %v, want %v", step.name, got, step.members)
		}
		// The hook fires once per real change, with the list from
		// before it, and never on a no-op.
		if step.wantOK && !reflect.DeepEqual(fired, [][]string{prev}) {
			t.Fatalf("%s: OnChange got %v, want one call with %v", step.name, fired, prev)
		}
		if !step.wantOK && fired != nil {
			t.Fatalf("%s: no-op fired OnChange with %v", step.name, fired)
		}
		ownersDistinct(t, r, ringProbeKeys)
		// The mutated ring must agree with a fresh one on every routing
		// decision — workers and the coordinator each build their own.
		fresh, err := NewRing(step.members, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range ringProbeKeys {
			if got, want := r.Owners(key, 0), fresh.Owners(key, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ring diverged from fresh build for %q: %v vs %v", step.name, key, got, want)
			}
		}
	}
}

// TestRingRemoveReaddKeepsOwnersDistinct churns one member in and out
// while another is marked dead, so live-first reordering runs against
// interleaved vnodes of the re-added node.
func TestRingRemoveReaddKeepsOwnersDistinct(t *testing.T) {
	r, err := NewRing(threeNodes(), 64)
	if err != nil {
		t.Fatal(err)
	}
	churn := "http://node-b:1"
	if !r.SetAlive("http://node-c:1", false) {
		t.Fatal("SetAlive(false) on member reported no change")
	}
	for i := 0; i < 5; i++ {
		if !r.Remove(churn) {
			t.Fatalf("round %d: remove failed", i)
		}
		ownersDistinct(t, r, ringProbeKeys)
		if !r.Add(churn) {
			t.Fatalf("round %d: re-add failed", i)
		}
		ownersDistinct(t, r, ringProbeKeys)
		// A re-added node starts alive regardless of its pre-removal
		// state.
		if !r.IsAlive(churn) {
			t.Fatalf("round %d: re-added node not alive", i)
		}
	}
	// The untouched dead node stayed dead across the churn.
	if r.IsAlive("http://node-c:1") {
		t.Fatal("dead node revived by unrelated membership changes")
	}
}

// TestRingSetAliveUnknownNode pins the contract the prober and the
// forward path rely on: liveness flips on unknown nodes report false
// (no change) instead of silently materializing a member the way Add
// would.
func TestRingSetAliveUnknownNode(t *testing.T) {
	r, err := NewRing(threeNodes(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, alive := range []bool{true, false} {
		if r.SetAlive("http://not-a-member:9", alive) {
			t.Fatalf("SetAlive(unknown, %v) reported a change", alive)
		}
	}
	if got := len(r.Nodes()); got != 3 {
		t.Fatalf("SetAlive grew the membership to %d", got)
	}
	// A removed node is unknown too: its stale liveness updates (a late
	// prober goroutine) must not resurrect it.
	gone := "http://node-a:1"
	if !r.Remove(gone) {
		t.Fatal("remove failed")
	}
	if r.SetAlive(gone, true) {
		t.Fatal("SetAlive on a removed node reported a change")
	}
	if r.IsAlive(gone) {
		t.Fatal("removed node reads as alive")
	}
}

// TestRingRemoveLastMemberRefused: a ring with no nodes routes nothing,
// so the final member is pinned.
func TestRingRemoveLastMemberRefused(t *testing.T) {
	r, err := NewRing([]string{"http://only:1"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remove("http://only:1") {
		t.Fatal("last member removed")
	}
	if got := r.Nodes(); len(got) != 1 {
		t.Fatalf("membership %v", got)
	}
}

func TestRingSetMembers(t *testing.T) {
	r, err := NewRing(threeNodes(), 16)
	if err != nil {
		t.Fatal(err)
	}
	r.SetAlive("http://node-b:1", false)

	added, removed, err := r.SetMembers([]string{"http://node-b:1", "http://node-c:1", "http://node-d:1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(added, []string{"http://node-d:1"}) || !reflect.DeepEqual(removed, []string{"http://node-a:1"}) {
		t.Fatalf("added %v removed %v", added, removed)
	}
	// Retained members keep their liveness; new ones start alive.
	if r.IsAlive("http://node-b:1") {
		t.Fatal("reload revived a dead retained member")
	}
	if !r.IsAlive("http://node-d:1") {
		t.Fatal("new member not alive")
	}
	ownersDistinct(t, r, ringProbeKeys)

	// An identical list is a no-op and does not fire OnChange.
	r.OnChange(func(before []string) { t.Fatalf("no-op reload fired OnChange with %v", before) })
	added, removed, err = r.SetMembers([]string{"http://node-d:1", "http://node-c:1", "http://node-b:1"})
	if err != nil || added != nil || removed != nil {
		t.Fatalf("no-op reload: added %v removed %v err %v", added, removed, err)
	}

	if _, _, err := r.SetMembers(nil); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, _, err := r.SetMembers([]string{"x", "x"}); err == nil {
		t.Fatal("duplicate member list accepted")
	}
}

// TestRingOwnershipDuringChurn runs Ownership against a loop of Add and
// Remove: the race detector fails it if Ownership reads the member list
// outside the ring's lock.
func TestRingOwnershipDuringChurn(t *testing.T) {
	r, err := NewRing(threeNodes(), 16)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Add("http://node-d:1")
			r.Remove("http://node-d:1")
		}
	}()
	for i := 0; i < 200; i++ {
		nodes, shares := r.Ownership(64)
		if len(nodes) != len(shares) || len(nodes) < 3 {
			t.Fatalf("ownership %v %v", nodes, shares)
		}
	}
	close(stop)
	<-done
}
