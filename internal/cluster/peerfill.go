package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"repro/internal/store"
)

// PeerFiller lets a worker answer a locally missed submission from a
// peer's cache instead of re-simulating: on a miss it asks the key's
// ring owners (where the coordinator would have cached the result) for
// GET /v1/cache/{key}. Plug Fill into server.Config.PeerFill.
//
// Fill only ever reads peers' *local* caches (the cache endpoint never
// recurses into its own peer fill), so two nodes missing the same key
// cannot chase each other.
//
// The ring is shared with the node's Replicator and membership handler:
// a membership update pushed by the coordinator redirects fills and
// replica writes alike.
type PeerFiller struct {
	ring    *Ring
	self    string
	fanout  int
	timeout time.Duration
	client  *http.Client
}

// NewPeerFiller builds a filler for the node advertised as self over
// the shared membership ring (built from the full peer list including
// self, so the ring every node computes is identical). fanout caps how
// many owners are asked per miss (<= 0 means 3); timeout bounds each
// attempt (<= 0 means 1s).
func NewPeerFiller(self string, ring *Ring, fanout int, timeout time.Duration, client *http.Client) *PeerFiller {
	if fanout <= 0 {
		fanout = 3
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	if client == nil {
		client = &http.Client{}
	}
	return &PeerFiller{ring: ring, self: self, fanout: fanout, timeout: timeout, client: client}
}

// Fill fetches key from its owners, skipping self. The first peer that
// answers with valid JSON wins; every failure mode (down peer, 404,
// garbage) just means "not filled" and the caller simulates locally.
func (p *PeerFiller) Fill(ctx context.Context, key string) ([]byte, bool) {
	asked := 0
	for _, owner := range p.ring.Owners(key, 0) {
		if owner == p.self {
			continue
		}
		if asked >= p.fanout {
			break
		}
		asked++
		if data, ok := p.fetch(ctx, owner, key); ok {
			return data, true
		}
	}
	return nil, false
}

func (p *PeerFiller) fetch(ctx context.Context, owner, key string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/cache/%s", owner, key), nil)
	if err != nil {
		return nil, false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, false
	}
	if data, err = store.Payload(data); err != nil {
		return nil, false
	}
	return data, true
}

// Replicator pushes a completed result to the other ring owners of its
// key so a single node death loses no cached entry. Plug Replicate into
// server.Config.Replicate; the server calls it asynchronously after
// every simulation completes.
type Replicator struct {
	ring     *Ring
	self     string
	replicas int
	timeout  time.Duration
	client   *http.Client
}

// NewReplicator builds a replicator over the shared membership ring.
// replicas is the total copies a result should have across the fleet,
// counting the one the completing node already wrote (<= 0 means 2:
// primary + one replica); timeout bounds each push (<= 0 means 5s).
func NewReplicator(self string, ring *Ring, replicas int, timeout time.Duration, client *http.Client) *Replicator {
	if replicas <= 0 {
		replicas = 2
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if client == nil {
		client = &http.Client{}
	}
	return &Replicator{ring: ring, self: self, replicas: replicas, timeout: timeout, client: client}
}

// Replicate PUTs data to key's first `replicas` ring owners, skipping
// this node (which already holds the result). When the completing node
// is itself one of those owners this pushes replicas-1 copies; when the
// result was simulated off-placement (a direct submission to the
// "wrong" node) it repairs placement by pushing to every owner. Each
// push is best-effort: a dead target simply stays behind, and the
// next membership change's Repair or the next completion heals it.
func (r *Replicator) Replicate(ctx context.Context, key string, data []byte) (pushed, failed int) {
	return r.pushAll(ctx, r.ring.Owners(key, r.replicas), key, data)
}

// Repair is placement repair after a membership change: every key st
// holds whose first-R owner set differs between the before member list
// and the current ring is pushed to the owners it gained, and only to
// those. Every holder of a key runs it, so a key keeps R copies as long
// as one holder survives to push it; a node removed from the ring
// drains its keys to their new owners the same way.
func (r *Replicator) Repair(ctx context.Context, before []string, st *store.Store) (pushed, failed int) {
	old, err := NewRing(before, r.ring.vnodes)
	if err != nil {
		return 0, 0
	}
	for _, key := range st.Keys() {
		if ctx.Err() != nil {
			break
		}
		had := old.Owners(key, r.replicas)
		var gained []string
		for _, o := range r.ring.Owners(key, r.replicas) {
			if !slices.Contains(had, o) {
				gained = append(gained, o)
			}
		}
		if len(gained) == 0 {
			continue
		}
		data, ok := st.Get(key)
		if !ok {
			continue
		}
		p, f := r.pushAll(ctx, gained, key, data)
		pushed, failed = pushed+p, failed+f
	}
	return pushed, failed
}

// pushAll PUTs data to each of owners except this node.
func (r *Replicator) pushAll(ctx context.Context, owners []string, key string, data []byte) (pushed, failed int) {
	for _, owner := range owners {
		if owner == r.self {
			continue
		}
		if r.push(ctx, owner, key, data) {
			pushed++
		} else {
			failed++
		}
	}
	return pushed, failed
}

func (r *Replicator) push(ctx context.Context, owner, key string, data []byte) bool {
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, fmt.Sprintf("%s/v1/cache/%s", owner, key), bytes.NewReader(data))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}
