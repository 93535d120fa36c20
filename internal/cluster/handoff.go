package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Key handoff: after any membership change the coordinator walks every
// member's store.Keys() (via GET /v1/cache), re-resolves each key's
// owners against the new ring, and pushes keys a node no longer owns to
// their new primary over the existing GET/PUT /v1/cache/{key} path.
//
// The pass is:
//   - bounded: at most handoffConcurrency key moves run at once;
//   - resumable: a key the target already holds is skipped, so an
//     interrupted pass re-run from scratch only moves what is missing;
//   - generation-checked: if membership changes again mid-pass the pass
//     aborts and a fresh one starts against the new ring, so a stale
//     ring's placement decisions are never applied.
//
// Old holders keep their copies — handoff only ever adds replicas.
// Extra copies are harmless (the store is content-addressed) and mean a
// botched change can be rolled back without data motion.

const (
	handoffConcurrency = 4                // key moves in flight per pass
	handoffTimeout     = 15 * time.Second // each list/fetch/push op
)

// kickHandoff starts a background handoff pass, or flags a rerun if one
// is already running. Safe to call from any goroutine.
func (c *Coordinator) kickHandoff() {
	c.handoffMu.Lock()
	defer c.handoffMu.Unlock()
	if c.handoffClosed {
		return // Close has begun; don't race its handoffWG.Wait
	}
	if c.handoffRunning {
		c.handoffPending = true
		return
	}
	c.handoffRunning = true
	c.handoffWG.Add(1)
	go c.handoffLoop()
}

func (c *Coordinator) handoffLoop() {
	defer c.handoffWG.Done()
	for {
		c.runHandoff(c.handoffCtx)
		c.handoffMu.Lock()
		if !c.handoffPending || c.handoffCtx.Err() != nil {
			c.handoffRunning = false
			c.handoffMu.Unlock()
			return
		}
		c.handoffPending = false
		c.handoffMu.Unlock()
	}
}

// HandoffIdle reports whether no handoff pass is running or pending —
// the signal tests and operators poll for after a membership change.
func (c *Coordinator) HandoffIdle() bool {
	c.handoffMu.Lock()
	defer c.handoffMu.Unlock()
	return !c.handoffRunning
}

// handoffMove is one planned key transfer.
type handoffMove struct {
	key, from, to string
}

func (c *Coordinator) runHandoff(ctx context.Context) {
	gen := c.ring.Generation()
	members := c.ring.Nodes()
	c.handoffRuns.Add(1)
	c.handoffActive.Store(1)
	defer c.handoffActive.Store(0)

	// Snapshot every member's holdings first: the target sets double as
	// the "already there" filter that makes an interrupted pass cheap to
	// resume.
	holdings := make(map[string]map[string]bool, len(members))
	for _, m := range members {
		keys, err := c.cacheKeys(ctx, m)
		if err != nil {
			// A dead or unreachable member has nothing to hand off and
			// cannot receive; skip it. Its keys are either replicated
			// elsewhere already or lost with it.
			c.handoffErrors.Add(1)
			c.cfg.Logf("cluster: handoff: skip %s: %v", m, err)
			continue
		}
		set := make(map[string]bool, len(keys))
		for _, k := range keys {
			set[k] = true
		}
		holdings[m] = set
	}

	var moves []handoffMove
	for _, m := range members {
		for key := range holdings[m] {
			c.handoffScanned.Add(1)
			owners := c.ring.Owners(key, c.cfg.Replicas)
			owned := false
			for _, o := range owners {
				if o == m {
					owned = true
					break
				}
			}
			if owned || len(owners) == 0 {
				continue
			}
			target := owners[0]
			if holdings[target][key] {
				c.handoffSkipped.Add(1)
				continue
			}
			if holdings[target] == nil {
				// Target was unreachable during the snapshot; still plan
				// the move — a failed push is counted, not fatal.
				holdings[target] = make(map[string]bool)
			}
			holdings[target][key] = true // dedup: one source per key is enough
			moves = append(moves, handoffMove{key: key, from: m, to: target})
		}
	}
	if len(moves) == 0 {
		c.cfg.Logf("cluster: handoff: ring gen %d already in placement (%d members)", gen, len(members))
		return
	}
	// The plan came out of map iteration; sort it so an interrupted pass
	// resumes in the same order and logs are reproducible.
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].key != moves[j].key {
			return moves[i].key < moves[j].key
		}
		return moves[i].from < moves[j].from
	})
	c.cfg.Logf("cluster: handoff: moving %d keys across %d members (ring gen %d)", len(moves), len(members), gen)

	sem := make(chan struct{}, handoffConcurrency)
	var wg sync.WaitGroup
	var aborted bool
	for _, mv := range moves {
		if c.ring.Generation() != gen || ctx.Err() != nil {
			aborted = true // membership moved again; the pending rerun replans
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(mv handoffMove) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := c.moveKey(ctx, mv); err != nil {
				c.handoffErrors.Add(1)
				c.cfg.Logf("cluster: handoff: %s: %v", mv.key[:12], err)
				return
			}
			c.handoffMoved.Add(1)
		}(mv)
	}
	wg.Wait()
	if aborted {
		c.cfg.Logf("cluster: handoff: aborted at ring gen change (gen %d stale)", gen)
		return
	}
	c.cfg.Logf("cluster: handoff: done (%d moved total, %d errors total)", c.handoffMoved.Load(), c.handoffErrors.Load())
}

func (c *Coordinator) moveKey(ctx context.Context, mv handoffMove) error {
	data, err := c.cacheGet(ctx, mv.from, mv.key)
	if err != nil {
		return fmt.Errorf("fetch from %s: %w", mv.from, err)
	}
	if err := c.cachePut(ctx, mv.to, mv.key, data); err != nil {
		return fmt.Errorf("push to %s: %w", mv.to, err)
	}
	return nil
}

// cacheKeys lists one member's cached content hashes (GET /v1/cache).
func (c *Coordinator) cacheKeys(ctx context.Context, node string) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, handoffTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/cache", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("list cache: http %d", resp.StatusCode)
	}
	var body struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&body); err != nil {
		return nil, err
	}
	return body.Keys, nil
}

func (c *Coordinator) cacheGet(ctx context.Context, node, key string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, handoffTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/cache/%s", node, key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if !json.Valid(data) {
		return nil, fmt.Errorf("invalid payload")
	}
	return data, nil
}

func (c *Coordinator) cachePut(ctx context.Context, node, key string, data []byte) error {
	ctx, cancel := context.WithTimeout(ctx, handoffTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, fmt.Sprintf("%s/v1/cache/%s", node, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("http %d", resp.StatusCode)
	}
	return nil
}
