package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// CoordinatorConfig tunes routing, hedging, quotas and health checks.
type CoordinatorConfig struct {
	// Peers are the worker base URLs ("http://host:port"). Required.
	Peers []string
	// VNodes per ring member (default 64).
	VNodes int
	// Replicas is the fleet's replication factor R (default 2): workers
	// keep each result on its key's first R ring owners. A submission
	// may try the first R+1 across reroutes and hedges: the R that can
	// hold the result plus one that can simulate it.
	Replicas int

	// A second request is hedged onto the next owner once a forward
	// outlives the p95 of observed latencies. HedgeAfterMin/Max clamp
	// that delay (defaults 100ms / 5s); the Min also serves as the
	// cold-start delay before any latency has been observed.
	HedgeAfterMin time.Duration
	HedgeAfterMax time.Duration

	// HealthInterval / HealthTimeout drive the background liveness
	// prober (defaults 2s / 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration

	// MaxInflight bounds concurrent forwards; excess submissions wait
	// in fair order across tenants (default 128).
	MaxInflight int
	// QuotaRate/QuotaBurst are the per-tenant token bucket
	// (tokens/sec; rate <= 0 disables quotas, default disabled).
	QuotaRate  float64
	QuotaBurst float64

	// MaxBudget mirrors the workers' largest accepted per-thread
	// instruction budget so routing rejects what workers would (0 =
	// worker default).
	MaxBudget uint64

	Client *http.Client // defaults to a dedicated client
	Logf   func(format string, args ...any)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	// Replicas is deliberately not clamped to len(Peers): membership is
	// dynamic, and Ring.Owners caps at the fleet's current size anyway.
	if c.HedgeAfterMin <= 0 {
		c.HedgeAfterMin = 100 * time.Millisecond
	}
	if c.HedgeAfterMax <= 0 {
		c.HedgeAfterMax = 5 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 2 * c.QuotaRate
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Coordinator routes submissions over the worker ring. Create with
// NewCoordinator, serve Handler(), stop with Close.
type Coordinator struct {
	cfg    CoordinatorConfig
	ring   *Ring
	quotas *Quotas
	fairq  *FairQueue
	lat    *latencyTracker

	stopHealth chan struct{}
	closeOnce  sync.Once
	healthWG   sync.WaitGroup

	forwards, forwardErrors       atomic.Uint64
	hedgesFired, hedgesWon        atomic.Uint64
	reroutes, reroutes429         atomic.Uint64
	quotaRejected                 atomic.Uint64
	nodeDeaths, nodeRevivals      atomic.Uint64
	cacheHits, cacheMisses        atomic.Uint64 // as reported by worker responses
	membersAdded, membersRemoved  atomic.Uint64
	memberSyncs, memberSyncErrors atomic.Uint64
}

// NewCoordinator validates cfg, builds the ring and starts the health
// prober. Callers must Close it.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	for _, p := range cfg.Peers {
		if err := validateNodeURL(p); err != nil {
			return nil, err
		}
	}
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:        cfg,
		ring:       ring,
		quotas:     NewQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		fairq:      NewFairQueue(cfg.MaxInflight),
		lat:        newLatencyTracker(512),
		stopHealth: make(chan struct{}),
	}
	c.healthWG.Add(1)
	go c.healthLoop()
	return c, nil
}

// Close stops the health prober. Safe to call more than once.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stopHealth) })
	c.healthWG.Wait()
}

// Owners is the forward set for key in preference order: its first R+1
// ring owners (tests, debugging).
func (c *Coordinator) Owners(key string) []string {
	return c.ring.Owners(key, c.cfg.Replicas+1)
}

// Ring exposes the membership ring (cmd/simd -coordinator logging).
func (c *Coordinator) Ring() *Ring { return c.ring }

func (c *Coordinator) healthLoop() {
	defer c.healthWG.Done()
	ticker := time.NewTicker(c.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopHealth:
			return
		case <-ticker.C:
			c.probeAll()
			c.quotas.Prune()
			c.fairq.Prune()
		}
	}
}

// ApplyMemberChange mutates fleet membership (POST /v1/members and the
// SIGHUP peer-file reload both land here). On any actual change the new
// member list is pushed to every node that was or is a member; each
// worker then repairs placement of the keys it holds (Replicator.Repair).
func (c *Coordinator) ApplyMemberChange(ch MemberChange) (MembersReply, error) {
	before := c.ring.Nodes()
	added, removed, err := applyChange(c.ring, ch)
	if err != nil {
		return MembersReply{Members: before}, err
	}
	reply := MembersReply{
		Members: c.ring.Nodes(),
		Added:   added,
		Removed: removed,
		Changed: len(added) > 0 || len(removed) > 0,
	}
	if !reply.Changed {
		return reply, nil
	}
	c.membersAdded.Add(uint64(len(added)))
	c.membersRemoved.Add(uint64(len(removed)))
	c.cfg.Logf("cluster: membership changed: +%v -%v (now %d members)", added, removed, len(reply.Members))
	// A removed node is told too, so it drains its keys to their owners.
	c.syncWorkers(append(before, added...), reply.Members)
	return reply, nil
}

// syncWorkers pushes the authoritative member list to each target and
// waits for the answers, each bounded by HealthTimeout. Best-effort: a
// worker that misses an update converges on the next change, or on its
// revival if it was down (setAlive).
func (c *Coordinator) syncWorkers(targets, members []string) {
	body, err := json.Marshal(MemberChange{Action: "set", Nodes: members})
	if err != nil {
		c.cfg.Logf("cluster: member sync: %v", err)
		return
	}
	var wg sync.WaitGroup
	for _, node := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.postMembers(node, body); err != nil {
				c.memberSyncErrors.Add(1)
				c.cfg.Logf("cluster: member sync to %s: %v", node, err)
				return
			}
			c.memberSyncs.Add(1)
		}()
	}
	wg.Wait()
}

func (c *Coordinator) postMembers(node string, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/members", bytes.NewReader(body))
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
	if resp.StatusCode >= 300 {
		return fmt.Errorf("http %d", resp.StatusCode)
	}
	return nil
}

func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, node := range c.ring.Nodes() {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			c.setAlive(node, c.probe(node))
		}(node)
	}
	wg.Wait()
}

func (c *Coordinator) probe(node string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (c *Coordinator) setAlive(node string, alive bool) {
	if !c.ring.SetAlive(node, alive) {
		return
	}
	if alive {
		c.nodeRevivals.Add(1)
		c.cfg.Logf("cluster: node %s is back", node)
		// It may have restarted with a stale peer list, or missed a
		// change while down: hand it the current one.
		c.syncWorkers([]string{node}, c.ring.Nodes())
	} else {
		c.nodeDeaths.Add(1)
		c.cfg.Logf("cluster: node %s is down", node)
	}
}

// hedgeDelay is the current wait before firing a backup request: the
// p95 of recent forward latencies, clamped.
func (c *Coordinator) hedgeDelay() time.Duration {
	d := c.lat.Quantile(0.95)
	if d < c.cfg.HedgeAfterMin {
		d = c.cfg.HedgeAfterMin
	}
	if d > c.cfg.HedgeAfterMax {
		d = c.cfg.HedgeAfterMax
	}
	return d
}

// forwardResult is one worker's answer to a forwarded submission.
type forwardResult struct {
	node       string
	status     int
	body       []byte
	retryAfter string // the worker's Retry-After header, if any
	cache      string // the worker's server.CacheHeader: "hit", "miss" or ""
	err        error
	hedged     bool
}

// retryable reports whether another replica should be tried: transport
// errors (node dead mid-request), 429 backpressure, and 503 draining
// all are; everything else — including a 500 from a failed run — is the
// authoritative answer for this submission.
func (r forwardResult) retryable() bool {
	return r.err != nil || r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable
}

// forward tries key's owner nodes in preference order: the primary
// first, a hedge onto the next replica once the request outlives the
// fleet's latency percentile, and an immediate reroute whenever a node
// answers with a retryable failure. The first authoritative answer
// wins and every other in-flight arm is cancelled.
func (c *Coordinator) forward(ctx context.Context, nodes []string, path string, body []byte) (forwardResult, error) {
	if len(nodes) == 0 {
		return forwardResult{}, errors.New("no nodes available")
	}
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	results := make(chan forwardResult, len(nodes))
	inflight := 0
	next := 0
	launch := func(hedged bool) {
		node := nodes[next]
		next++
		inflight++
		go func() {
			r := c.tryNode(ctx, node, path, body)
			r.hedged = hedged
			select {
			case results <- r:
			case <-ctx.Done(): // forward already returned; drop the late answer
			}
		}()
	}
	launch(false)

	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()

	var last forwardResult
	for {
		select {
		case r := <-results:
			inflight--
			if !r.retryable() {
				if r.hedged {
					c.hedgesWon.Add(1)
				}
				return r, nil
			}
			// This arm is out; note why and reroute if arms remain.
			if r.err != nil {
				c.setAlive(r.node, false) // fail fast; the prober revives it
				c.reroutes.Add(1)
			} else if r.status == http.StatusTooManyRequests {
				c.reroutes429.Add(1)
			} else {
				c.reroutes.Add(1)
			}
			last = r
			if next < len(nodes) {
				launch(false)
			} else if inflight == 0 {
				return last, nil // exhausted: surface the final failure
			}
		case <-hedge.C:
			if next < len(nodes) && inflight > 0 {
				c.hedgesFired.Add(1)
				launch(true)
			}
		case <-ctx.Done():
			return forwardResult{}, ctx.Err()
		}
	}
}

// tryNode issues one forwarded request and slurps the response so the
// result can be replayed to the client even after other arms are
// cancelled.
func (c *Coordinator) tryNode(ctx context.Context, node, path string, body []byte) forwardResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		return forwardResult{node: node, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return forwardResult{node: node, err: err}
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return forwardResult{node: node, err: err}
	}
	return forwardResult{node: node, status: resp.StatusCode, body: data, retryAfter: resp.Header.Get("Retry-After"), cache: resp.Header.Get(server.CacheHeader)}
}

// maxSizedBody caps the Content-Length readBody trusts for one up-front
// allocation: a longer or unknown length is read by io.ReadAll, which
// grows its buffer only as bytes arrive, so a lying header cannot force
// a large allocation.
const maxSizedBody = 1 << 20

// readBody reads a worker's answer. Workers send an exact
// Content-Length, so the usual answer costs one allocation of exactly
// its size; a body shorter than its header says is an error.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("read %d-byte answer: %w", n, err)
	}
	return data, nil
}

// Stats is the coordinator's observable state.
type Stats struct {
	Nodes          int     `json:"nodes"`
	NodesAlive     int     `json:"nodes_alive"`
	Forwards       uint64  `json:"forwards"`
	ForwardErrors  uint64  `json:"forward_errors"`
	HedgesFired    uint64  `json:"hedges_fired"`
	HedgesWon      uint64  `json:"hedges_won"`
	Reroutes       uint64  `json:"reroutes"`
	Reroutes429    uint64  `json:"reroutes_429"`
	QuotaRejected  uint64  `json:"quota_rejected"`
	NodeDeaths     uint64  `json:"node_deaths"`
	NodeRevivals   uint64  `json:"node_revivals"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	MembersAdded   uint64  `json:"members_added"`
	MembersRemoved uint64  `json:"members_removed"`
	MemberSyncs    uint64  `json:"member_syncs"`
	MemberSyncErrs uint64  `json:"member_sync_errors"`
	FairQueueDepth int     `json:"fairq_depth"`
	HedgeDelayMs   float64 `json:"hedge_delay_ms"`
	LatencyP50Ms   float64 `json:"latency_p50_ms"`
	LatencyP95Ms   float64 `json:"latency_p95_ms"`
	LatencyP99Ms   float64 `json:"latency_p99_ms"`
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Nodes:          len(c.ring.Nodes()),
		NodesAlive:     c.ring.AliveCount(),
		Forwards:       c.forwards.Load(),
		ForwardErrors:  c.forwardErrors.Load(),
		HedgesFired:    c.hedgesFired.Load(),
		HedgesWon:      c.hedgesWon.Load(),
		Reroutes:       c.reroutes.Load(),
		Reroutes429:    c.reroutes429.Load(),
		QuotaRejected:  c.quotaRejected.Load(),
		NodeDeaths:     c.nodeDeaths.Load(),
		NodeRevivals:   c.nodeRevivals.Load(),
		CacheHits:      c.cacheHits.Load(),
		CacheMisses:    c.cacheMisses.Load(),
		MembersAdded:   c.membersAdded.Load(),
		MembersRemoved: c.membersRemoved.Load(),
		MemberSyncs:    c.memberSyncs.Load(),
		MemberSyncErrs: c.memberSyncErrors.Load(),
		FairQueueDepth: c.fairq.Depth(),
		HedgeDelayMs:   float64(c.hedgeDelay()) / 1e6,
		LatencyP50Ms:   float64(c.lat.Quantile(0.50)) / 1e6,
		LatencyP95Ms:   float64(c.lat.Quantile(0.95)) / 1e6,
		LatencyP99Ms:   float64(c.lat.Quantile(0.99)) / 1e6,
	}
}

// Handler returns the coordinator's HTTP API:
//
//	POST   /v1/runs             shard + forward (hedged); ?wait=1 passthrough
//	GET    /v1/runs/{id}        proxied to the member the ID's node tag names
//	DELETE /v1/runs/{id}        proxied likewise
//	GET    /v1/runs/{id}/events proxied NDJSON stream
//	GET    /v1/fleet            fleet-wide aggregation (nodes + coordinator)
//	GET    /metrics             simd_cluster_* text metrics
//	GET    /healthz             liveness
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", c.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", c.handleProxyJob)
	mux.HandleFunc("DELETE /v1/runs/{id}", c.handleProxyJob)
	mux.HandleFunc("GET /v1/runs/{id}/events", c.handleProxyJob)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	mux.HandleFunc("POST /v1/members", c.handleMembers)
	mux.HandleFunc("GET /v1/members", c.handleMembers)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "nodes_alive": c.ring.AliveCount()})
	})
	return mux
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec server.RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "anonymous"
	}
	if !c.quotas.Allow(tenant) {
		c.quotaRejected.Add(1)
		// Real refill time from the token bucket, not a hardcoded guess:
		// clients backing off exactly this long succeed on the retry.
		w.Header().Set("Retry-After", retryAfterSeconds(c.quotas.RetryAfter(tenant)))
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("tenant %q over quota", tenant))
		return
	}
	key, err := server.SpecKey(spec, c.cfg.MaxBudget)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := c.fairq.Acquire(r.Context(), tenant); err != nil {
		return // client gone while queued
	}
	defer c.fairq.Release()

	body, err := json.Marshal(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	path := "/v1/runs"
	if r.URL.Query().Get("wait") != "" {
		path += "?wait=1"
	}
	c.forwards.Add(1)
	start := time.Now()
	res, err := c.forward(r.Context(), c.Owners(key), path, body)
	if err != nil {
		c.forwardErrors.Add(1)
		return // client cancelled; nothing to write
	}
	if res.err != nil {
		c.forwardErrors.Add(1)
		writeError(w, http.StatusBadGateway, fmt.Errorf("all replicas failed: %w", res.err))
		return
	}
	if res.status >= 200 && res.status < 300 {
		c.lat.Observe(time.Since(start))
		switch res.cache {
		case "hit":
			c.cacheHits.Add(1)
		case "miss":
			c.cacheMisses.Add(1)
		}
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(res.body)))
	h.Set("X-Simd-Node", res.node)
	if res.cache != "" {
		h.Set(server.CacheHeader, res.cache)
	}
	if res.hedged {
		h.Set("X-Simd-Hedged", "1")
	}
	if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
		// Every replica pushed back; surface the last worker's own
		// drain-rate estimate rather than inventing a constant.
		ra := res.retryAfter
		if ra == "" {
			ra = "1"
		}
		h.Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// retryAfterSeconds renders a wait as a whole-second Retry-After value,
// rounding up so a client that honors it lands after the refill, with a
// floor of 1 (0 would invite an immediate, certainly rejected retry).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// handleMembers serves fleet membership: GET reports it, POST mutates
// it through ApplyMemberChange (worker sync included).
func (c *Coordinator) handleMembers(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, MembersReply{Members: c.ring.Nodes()})
		return
	}
	var ch MemberChange
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&ch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode member change: %w", err))
		return
	}
	reply, err := c.ApplyMemberChange(ch)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleProxyJob forwards a job-scoped request unchanged to the member
// named by the job ID's node tag. An untagged ID, or a tag that matches
// no current member, is answered 404 without dialling anything: the
// address always comes from the member list, never from client input.
func (c *Coordinator) handleProxyJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node, ok := c.jobNode(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q (no current member minted it)", id))
		return
	}
	target, err := url.Parse(node)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	proxy := &httputil.ReverseProxy{
		Director: func(req *http.Request) {
			req.URL.Scheme = target.Scheme
			req.URL.Host = target.Host
			req.Host = target.Host
		},
		FlushInterval: 100 * time.Millisecond, // NDJSON event streams
		Transport:     c.cfg.Client.Transport, // dial members as forwards do
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			writeError(w, http.StatusBadGateway, fmt.Errorf("node %s: %w", node, err))
		},
	}
	proxy.ServeHTTP(w, r)
}

// jobNode resolves a job ID to the current member whose NodeTag it
// carries.
func (c *Coordinator) jobNode(id string) (string, bool) {
	tag, ok := server.JobNodeTag(id)
	if !ok {
		return "", false
	}
	for _, node := range c.ring.Nodes() {
		if server.NodeTag(node) == tag {
			return node, true
		}
	}
	return "", false
}

// FleetNode is one worker's entry in the /v1/fleet aggregation.
type FleetNode struct {
	URL       string        `json:"url"`
	Alive     bool          `json:"alive"`
	Ownership float64       `json:"ownership"` // estimated keyspace share
	Error     string        `json:"error,omitempty"`
	Stats     *server.Stats `json:"stats,omitempty"`
}

// Fleet is the /v1/fleet response.
type Fleet struct {
	Nodes       []FleetNode `json:"nodes"`
	Coordinator Stats       `json:"coordinator"`
	// Totals sum the per-node counters that matter for capacity
	// planning.
	Totals struct {
		Submitted   uint64 `json:"submitted"`
		Completed   uint64 `json:"completed"`
		Simulations uint64 `json:"simulations"`
		CacheHits   uint64 `json:"cache_hits"`
		PeerFills   uint64 `json:"peer_fills"`
		QueueDepth  int    `json:"queue_depth"`
		Inflight    int64  `json:"inflight"`
	} `json:"totals"`
}

// FleetStatus polls every node's /v1/stats and aggregates.
func (c *Coordinator) FleetStatus(ctx context.Context) Fleet {
	nodes, shares := c.ring.Ownership(4096)
	fleet := Fleet{Coordinator: c.Stats(), Nodes: make([]FleetNode, len(nodes))}
	var wg sync.WaitGroup
	for i, node := range nodes {
		fleet.Nodes[i] = FleetNode{URL: node, Alive: c.ring.IsAlive(node), Ownership: shares[i]}
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			st, err := c.nodeStats(ctx, node)
			if err != nil {
				fleet.Nodes[i].Error = err.Error()
				return
			}
			fleet.Nodes[i].Stats = st
		}(i, node)
	}
	wg.Wait()
	for _, n := range fleet.Nodes {
		if n.Stats == nil {
			continue
		}
		fleet.Totals.Submitted += n.Stats.Submitted
		fleet.Totals.Completed += n.Stats.Completed
		fleet.Totals.Simulations += n.Stats.Simulations
		fleet.Totals.CacheHits += n.Stats.Cache.Hits + n.Stats.Cache.DiskHits
		fleet.Totals.PeerFills += n.Stats.PeerFillHits
		fleet.Totals.QueueDepth += n.Stats.QueueDepth
		fleet.Totals.Inflight += n.Stats.Inflight
	}
	return fleet
}

func (c *Coordinator) nodeStats(ctx context.Context, node string) (*server.Stats, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: http %d", resp.StatusCode)
	}
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.FleetStatus(r.Context()))
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := c.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range []struct {
		name, typ string
		value     any
	}{
		{"simd_cluster_nodes", "gauge", st.Nodes},
		{"simd_cluster_nodes_alive", "gauge", st.NodesAlive},
		{"simd_cluster_forwards_total", "counter", st.Forwards},
		{"simd_cluster_forward_errors_total", "counter", st.ForwardErrors},
		{"simd_cluster_hedges_fired_total", "counter", st.HedgesFired},
		{"simd_cluster_hedges_won_total", "counter", st.HedgesWon},
		{"simd_cluster_reroutes_total", "counter", st.Reroutes},
		{"simd_cluster_reroutes_429_total", "counter", st.Reroutes429},
		{"simd_cluster_quota_rejected_total", "counter", st.QuotaRejected},
		{"simd_cluster_node_deaths_total", "counter", st.NodeDeaths},
		{"simd_cluster_node_revivals_total", "counter", st.NodeRevivals},
		{"simd_cluster_cache_hits_total", "counter", st.CacheHits},
		{"simd_cluster_cache_misses_total", "counter", st.CacheMisses},
		{"simd_cluster_members_added_total", "counter", st.MembersAdded},
		{"simd_cluster_members_removed_total", "counter", st.MembersRemoved},
		{"simd_cluster_member_syncs_total", "counter", st.MemberSyncs},
		{"simd_cluster_member_sync_errors_total", "counter", st.MemberSyncErrs},
		{"simd_cluster_fairq_depth", "gauge", st.FairQueueDepth},
		{"simd_cluster_hedge_delay_ms", "gauge", st.HedgeDelayMs},
		{"simd_cluster_latency_p50_ms", "gauge", st.LatencyP50Ms},
		{"simd_cluster_latency_p95_ms", "gauge", st.LatencyP95Ms},
		{"simd_cluster_latency_p99_ms", "gauge", st.LatencyP99Ms},
	} {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", m.name, m.typ, m.name, m.value)
	}
	nodes, shares := c.ring.Ownership(4096)
	fmt.Fprint(w, "# TYPE simd_cluster_ownership gauge\n")
	for i, node := range nodes {
		fmt.Fprintf(w, "simd_cluster_ownership{node=%q} %.4f\n", node, shares[i])
	}
}

// latencyTracker keeps a fixed ring of recent forward latencies and,
// beside it, the same window sorted, so a quantile query is one index.
type latencyTracker struct {
	mu     sync.Mutex
	buf    []time.Duration
	sorted []time.Duration // buf's retained samples in ascending order
	next   int
}

func newLatencyTracker(size int) *latencyTracker {
	return &latencyTracker{buf: make([]time.Duration, size), sorted: make([]time.Duration, 0, size)}
}

// Observe records d, dropping the oldest sample once the window is
// full: two binary searches and two copies within sorted.
func (l *latencyTracker) Observe(d time.Duration) {
	l.mu.Lock()
	if len(l.sorted) == len(l.buf) {
		i, _ := slices.BinarySearch(l.sorted, l.buf[l.next])
		l.sorted = slices.Delete(l.sorted, i, i+1)
	}
	i, _ := slices.BinarySearch(l.sorted, d)
	l.sorted = slices.Insert(l.sorted, i, d)
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	l.mu.Unlock()
}

// Quantile returns the q-th latency quantile over the retained window,
// or 0 before any observation.
func (l *latencyTracker) Quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.sorted)
	if n == 0 {
		return 0
	}
	idx := int(q * float64(n-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return l.sorted[idx]
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
