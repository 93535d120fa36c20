// Package cluster turns single cmd/simd nodes into a horizontally
// scaled fleet. A coordinator shards each submission by its
// content-address cache key over a consistent-hash ring of worker
// nodes, hedges slow requests onto a replica after an observed latency
// percentile, reroutes around dead or overloaded (429) shards, and
// enforces per-tenant token-bucket quotas with weighted-fair dequeue in
// front of the fan-out. Workers stay exactly what internal/server made
// them — bounded queue, singleflight, content-addressed cache — plus a
// peer cache-fill client so any node can serve any cached result
// without re-simulating.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes and health-aware
// lookups. Membership is dynamic: Add and Remove rebuild the vnode
// table so nodes can join or leave a running fleet; liveness is toggled
// by the health checker and by forward-path connection failures.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []point // sorted by hash
	nodes  []string
	alive  map[string]bool
	// onChange runs after every membership change with the member list
	// from before it (OnChange).
	onChange func(before []string)
}

// ringHash places s on the 64-bit ring keyspace. SHA-256 keeps vnode
// placement both well-mixed and platform-independent: the same peer
// list yields the same shard map on every node, which is what lets
// workers predict where the coordinator cached a key.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring of the given nodes with vnodes virtual nodes
// each (vnodes <= 0 selects the default 64). Node order does not
// matter; duplicates are rejected.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{
		vnodes: vnodes,
		nodes:  append([]string(nil), nodes...),
		alive:  make(map[string]bool, len(nodes)),
	}
	sort.Strings(r.nodes)
	for i := 1; i < len(r.nodes); i++ {
		if r.nodes[i] == r.nodes[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node %q", r.nodes[i])
		}
	}
	for _, n := range r.nodes {
		r.alive[n] = true
	}
	r.rebuildLocked()
	return r, nil
}

// rebuildLocked regenerates the vnode table from the current member
// list. Callers hold r.mu (or own the ring exclusively, as in NewRing).
// Placement depends only on the member set and vnode count, so every
// add/remove sequence that reaches the same membership yields the same
// ring a fresh NewRing would.
func (r *Ring) rebuildLocked() {
	r.points = make([]point, 0, len(r.nodes)*r.vnodes)
	for _, n := range r.nodes {
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, point{hash: ringHash(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Nodes returns the ring's members, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.nodes...)
}

// OnChange registers fn to run after every membership change, with the
// member list from before the change. It runs on the goroutine that
// made the change, after the new ring is in place, so fn sees the new
// placement through Owners. A worker uses it to start placement repair.
func (r *Ring) OnChange(fn func(before []string)) {
	r.mu.Lock()
	r.onChange = fn
	r.mu.Unlock()
}

// Add joins node to the ring (initially alive) and rebuilds the vnode
// table. It reports false if node is already a member.
func (r *Ring) Add(node string) bool {
	if node == "" {
		return false
	}
	added, _ := r.update(func(cur []string) []string {
		return append(append([]string(nil), cur...), node)
	})
	return len(added) > 0
}

// Remove drops node from the ring and rebuilds the vnode table. The
// last member cannot be removed (a ring with no nodes routes nothing).
// It reports false if node is not a member or is the last one.
func (r *Ring) Remove(node string) bool {
	_, removed := r.update(func(cur []string) []string {
		if len(cur) == 1 {
			return cur
		}
		next := make([]string, 0, len(cur))
		for _, n := range cur {
			if n != node {
				next = append(next, n)
			}
		}
		return next
	})
	return len(removed) > 0
}

// SetMembers replaces the member list wholesale (the SIGHUP peer-file
// reload path), preserving the liveness of retained members. It returns
// the nodes added and removed; both empty means the list matched the
// current membership and nothing changed.
func (r *Ring) SetMembers(nodes []string) (added, removed []string, err error) {
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	next := append([]string(nil), nodes...)
	sort.Strings(next)
	for i := 1; i < len(next); i++ {
		if next[i] == next[i-1] {
			return nil, nil, fmt.Errorf("cluster: duplicate node %q", next[i])
		}
	}
	added, removed = r.update(func([]string) []string { return next })
	return added, removed, nil
}

// update replaces the member list with edit(current), which must be
// non-empty and free of duplicates once sorted. New members start
// alive; retained ones keep their liveness. On a real change it
// rebuilds the vnode table and then runs the OnChange hook.
func (r *Ring) update(edit func(cur []string) []string) (added, removed []string) {
	r.mu.Lock()
	before := r.nodes
	next := edit(before)
	sort.Strings(next)
	want := make(map[string]bool, len(next))
	for _, n := range next {
		want[n] = true
		if _, ok := r.alive[n]; !ok {
			added = append(added, n)
		}
	}
	for _, n := range before {
		if !want[n] {
			removed = append(removed, n)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		r.mu.Unlock()
		return nil, nil
	}
	for _, n := range removed {
		delete(r.alive, n)
	}
	for _, n := range added {
		r.alive[n] = true
	}
	r.nodes = next
	r.rebuildLocked()
	hook := r.onChange
	r.mu.Unlock()
	if hook != nil {
		hook(before)
	}
	return added, removed
}

// SetAlive marks a node's liveness and reports whether that changed.
func (r *Ring) SetAlive(node string, alive bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.alive[node]; !ok {
		return false
	}
	if r.alive[node] == alive {
		return false
	}
	r.alive[node] = alive
	return true
}

// IsAlive reports a node's current liveness.
func (r *Ring) IsAlive(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive[node]
}

// AliveCount returns how many members are currently healthy.
func (r *Ring) AliveCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, node := range r.nodes {
		if r.alive[node] {
			n++
		}
	}
	return n
}

// Owners returns up to max distinct nodes for key in preference order:
// ring order starting at key's successor, with nodes currently marked
// dead demoted behind every live one (they remain last-resort targets —
// liveness is advisory, and a "dead" node may answer). max <= 0 returns
// every member.
func (r *Ring) Owners(key string, max int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if max <= 0 || max > len(r.nodes) {
		max = len(r.nodes)
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.nodes))
	ordered := make([]string, 0, len(r.nodes))
	for n := 0; n < len(r.points) && len(ordered) < len(r.nodes); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			ordered = append(ordered, p.node)
		}
	}
	out := make([]string, 0, max)
	for _, node := range ordered { // live nodes keep ring order
		if r.alive[node] {
			out = append(out, node)
		}
	}
	for _, node := range ordered { // dead ones trail as a last resort
		if !r.alive[node] {
			out = append(out, node)
		}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// Ownership estimates each node's share of the keyspace by probing
// evenly spaced ring positions. It returns parallel slices (sorted by
// node) rather than a map so callers can render it deterministically.
func (r *Ring) Ownership(samples int) ([]string, []float64) {
	if samples <= 0 {
		samples = 1024
	}
	counts := make(map[string]int, len(r.nodes))
	r.mu.RLock()
	step := ^uint64(0) / uint64(samples)
	for i := 0; i < samples; i++ {
		h := uint64(i) * step
		j := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
		counts[r.points[j%len(r.points)].node]++
	}
	nodes := append([]string(nil), r.nodes...)
	r.mu.RUnlock()
	shares := make([]float64, len(nodes))
	for i, n := range nodes {
		shares[i] = float64(counts[n]) / float64(samples)
	}
	return nodes, shares
}
