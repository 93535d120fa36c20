package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/server"
	"repro/internal/store"
)

// worker is one in-process simd node.
type worker struct {
	srv *server.Server
	ts  *httptest.Server
	url string
}

// startWorker boots a real internal/server node behind an httptest
// listener, bound first so the node tags its job IDs with its own URL
// as cmd/simd does. mutate may adjust the config (e.g. Workers: 1); the
// returned hook installs a PeerFiller once every node's URL is known.
func startWorker(t *testing.T, mutate func(*server.Config)) (*worker, *func(ctx context.Context, key string) ([]byte, bool)) {
	t.Helper()
	st, err := store.New(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var fill func(ctx context.Context, key string) ([]byte, bool)
	ts := httptest.NewUnstartedServer(nil)
	url := "http://" + ts.Listener.Addr().String()
	cfg := server.Config{
		SelfURL:    url,
		Store:      st,
		QueueSize:  16,
		Workers:    2,
		SimWorkers: 2,
		JobTimeout: time.Minute,
		Logf:       t.Logf,
		PeerFill: func(ctx context.Context, key string) ([]byte, bool) {
			if fill == nil {
				return nil, false
			}
			return fill(ctx, key)
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts.Config.Handler = srv.Handler()
	ts.Start()
	w := &worker{srv: srv, ts: ts, url: url}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return w, &fill
}

// kill severs the worker's network presence without waiting for
// in-flight handlers: the listener closes and every open client
// connection is dropped, like a SIGKILL would.
func (w *worker) kill() {
	w.ts.Listener.Close()
	w.ts.CloseClientConnections()
}

func startFleet(t *testing.T, n int, mutate func(i int, cfg *server.Config)) ([]*worker, *Coordinator) {
	t.Helper()
	workers := make([]*worker, n)
	fills := make([]*func(ctx context.Context, key string) ([]byte, bool), n)
	urls := make([]string, n)
	for i := range workers {
		i := i
		workers[i], fills[i] = startWorker(t, func(cfg *server.Config) {
			if mutate != nil {
				mutate(i, cfg)
			}
		})
		urls[i] = workers[i].url
	}
	// Now that every URL is known, give each node a real peer filler
	// over its own membership ring (as cmd/simd does).
	for i, w := range workers {
		ring, err := NewRing(urls, 16)
		if err != nil {
			t.Fatal(err)
		}
		pf := NewPeerFiller(w.url, ring, 0, time.Second, nil)
		*fills[i] = pf.Fill
	}
	return workers, startCoordinator(t, urls, nil)
}

// startCoordinator boots a coordinator over urls; client may be nil.
func startCoordinator(t *testing.T, urls []string, client *http.Client) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          urls,
		VNodes:         16,
		Replicas:       len(urls),
		HedgeAfterMin:  500 * time.Millisecond, // effectively off unless a test lowers it
		HealthInterval: time.Hour,              // tests drive liveness explicitly
		Client:         client,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func testSpec(seed uint64) server.RunSpec {
	return server.RunSpec{Scheme: "rrob", Threshold: 16, Mixes: []string{"Mix 1"}, Budget: 2_000, Seed: seed}
}

// submitVia posts spec to handler with ?wait=1 and returns the parsed
// envelope plus response metadata.
type submitResp struct {
	status int
	node   string
	hedged bool
	Cache  string          `json:"cache"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func submitVia(t *testing.T, h http.Handler, spec server.RunSpec, tenant string) submitResp {
	t.Helper()
	body, _ := json.Marshal(spec)
	req := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := submitResp{status: rec.Code, node: rec.Header().Get("X-Simd-Node"), hedged: rec.Header().Get("X-Simd-Hedged") != ""}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil && rec.Code == http.StatusOK {
		t.Fatalf("bad response body (%d): %s", rec.Code, rec.Body.String())
	}
	return out
}

// specOwnedBy searches seeds until the spec's primary owner is the
// given node, so tests can route deterministically.
func specOwnedBy(t *testing.T, c *Coordinator, node string) server.RunSpec {
	t.Helper()
	for seed := uint64(1); seed < 500; seed++ {
		spec := testSpec(seed)
		key, err := server.SpecKey(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c.Owners(key)[0] == node {
			return spec
		}
	}
	t.Fatal("no seed found whose primary is the requested node")
	return server.RunSpec{}
}

// calibrateBudget sizes an instruction budget so one run of testSpec
// takes roughly wallTarget on this machine (the race detector slows the
// engine by orders of magnitude, so fixed budgets are untestable). It
// measures a 50k-budget run on its own throwaway worker.
func calibrateBudget(t *testing.T, wallTarget time.Duration) uint64 {
	t.Helper()
	w, _ := startWorker(t, nil)
	spec := testSpec(424_242)
	spec.Budget = 50_000
	start := time.Now()
	if r := submitVia(t, w.srv.Handler(), spec, ""); r.status != http.StatusOK {
		t.Fatalf("calibration run: %+v", r)
	}
	rate := float64(spec.Budget) / time.Since(start).Seconds()
	b := uint64(rate * wallTarget.Seconds())
	if b < 100_000 {
		b = 100_000
	}
	if b > 50_000_000 {
		b = 50_000_000
	}
	t.Logf("calibrated: %.0f cycles/sec -> budget %d for ~%v", rate, b, wallTarget)
	return b
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestShardingAndPeerCacheFill: a result simulated via the coordinator
// lands on its shard owner; a client hitting a *different* node
// directly is served through peer fill with no second simulation.
func TestShardingAndPeerCacheFill(t *testing.T) {
	workers, c := startFleet(t, 3, nil)
	spec := testSpec(7)

	r1 := submitVia(t, c.Handler(), spec, "tenant-1")
	if r1.status != http.StatusOK || r1.Status != "done" || r1.Cache != "miss" {
		t.Fatalf("first submit: %+v", r1)
	}
	// Exactly one node simulated, and it is the ring primary.
	key, _ := server.SpecKey(spec, 0)
	var simNode *worker
	sims := 0
	for _, w := range workers {
		st := w.srv.Stats()
		sims += int(st.Simulations)
		if st.Simulations > 0 {
			simNode = w
		}
	}
	if sims != 1 || simNode == nil {
		t.Fatalf("want exactly 1 simulation in the fleet, got %d", sims)
	}
	if owner := c.Owners(key)[0]; owner != simNode.url {
		t.Fatalf("simulated on %s but ring primary is %s", simNode.url, owner)
	}

	// Hit a different node directly: peer fill, not re-simulation.
	var other *worker
	for _, w := range workers {
		if w != simNode {
			other = w
			break
		}
	}
	r2 := submitVia(t, other.srv.Handler(), spec, "")
	if r2.status != http.StatusOK || r2.Cache != "hit" {
		t.Fatalf("direct submit to non-owner: %+v", r2)
	}
	if !bytes.Equal(r2.Result, r1.Result) {
		t.Fatal("peer-filled result differs from the original")
	}
	st := other.srv.Stats()
	if st.PeerFillHits != 1 || st.Simulations != 0 {
		t.Fatalf("non-owner stats: %+v", st)
	}
	if os := simNode.srv.Stats(); os.PeerServed != 1 {
		t.Fatalf("owner did not serve the fill: %+v", os)
	}
}

// TestChaosKillWorkerMidSweep kills a worker while its sweep is
// running: the coordinator must reroute to a replica and the client
// still gets a result byte-identical to an undisturbed run.
func TestChaosKillWorkerMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second calibrated sweeps")
	}
	workers, c := startFleet(t, 3, nil)
	byURL := map[string]*worker{}
	for _, w := range workers {
		byURL[w.url] = w
	}

	// Reference: an undisturbed single-node run of the same spec.
	ref, _ := startWorker(t, nil)
	// A spec big enough (~2s) to still be in flight when the kill lands.
	spec := testSpec(11)
	spec.Budget = calibrateBudget(t, 2*time.Second)
	refResp := submitVia(t, ref.srv.Handler(), spec, "")
	if refResp.status != http.StatusOK || refResp.Status != "done" {
		t.Fatalf("reference run: %+v", refResp)
	}

	key, _ := server.SpecKey(spec, 0)
	victim := byURL[c.Owners(key)[0]]

	done := make(chan submitResp, 1)
	go func() { done <- submitVia(t, c.Handler(), spec, "tenant-chaos") }()

	// Wait until the victim is actually simulating, then kill it.
	waitFor(t, "victim to start the sweep", func() bool { return victim.srv.Stats().Inflight > 0 })
	victim.kill()

	var r submitResp
	select {
	case r = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("submission never completed after the kill")
	}
	if r.status != http.StatusOK || r.Status != "done" {
		t.Fatalf("post-kill response: %+v", r)
	}
	if !bytes.Equal(r.Result, refResp.Result) {
		t.Fatal("rerouted result is not byte-identical to the reference run")
	}
	if r.node == victim.url {
		t.Fatalf("response claims to come from the killed node %s", r.node)
	}
	st := c.Stats()
	if st.Reroutes < 1 {
		t.Fatalf("no reroute recorded: %+v", st)
	}
	// The forward path marked the dead node down without waiting for
	// the prober.
	if c.ring.IsAlive(victim.url) {
		t.Fatal("killed node still marked alive")
	}
}

// TestHedgedRequestWinsAndLoserIsCancelled pins the tail-latency path:
// the primary is wedged (its single worker slot is occupied), the hedge
// fires to the replica and wins, and the losing arm never simulates on
// the primary: under load the coordinator may cancel it before the
// primary counts it, and a loser the primary did count ends cancelled.
func TestHedgedRequestWinsAndLoserIsCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second calibrated sweeps")
	}
	workers, c0 := startFleet(t, 2, func(i int, cfg *server.Config) {
		cfg.Workers = 1 // one slot per node so a single blocker wedges it
	})
	c0.Close() // rebuild with a fast hedge below
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{workers[0].url, workers[1].url},
		VNodes:         16,
		Replicas:       2,
		HedgeAfterMin:  30 * time.Millisecond,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	byURL := map[string]*worker{workers[0].url: workers[0], workers[1].url: workers[1]}
	spec := specOwnedBy(t, c, workers[0].url)
	primary := byURL[c.Owners(mustKey(t, spec))[0]]

	// Wedge the primary: a long (~4s) detached run occupies its only
	// slot.
	blocker := testSpec(9999)
	blocker.Budget = calibrateBudget(t, 4*time.Second)
	bj, cached, err := primary.srv.Submit(context.Background(), blocker, true)
	if err != nil || cached != nil {
		t.Fatalf("blocker submit: %v", err)
	}
	waitFor(t, "blocker to occupy the slot", func() bool { return primary.srv.Stats().Inflight == 1 })

	r := submitVia(t, c.Handler(), spec, "tenant-hedge")
	if r.status != http.StatusOK || r.Status != "done" {
		t.Fatalf("hedged submit: %+v", r)
	}
	if r.node == primary.url {
		t.Fatalf("response came from the wedged primary")
	}
	if !r.hedged {
		t.Fatal("winning response not marked as hedged")
	}
	st := c.Stats()
	if st.HedgesFired < 1 || st.HedgesWon < 1 {
		t.Fatalf("hedge counters: %+v", st)
	}

	// The coordinator cancelled the losing arm when the hedge won. That
	// arm may have queued behind the blocker on the primary, or been
	// cancelled before the primary ever counted it; the test holds
	// either way. Once the blocker is cancelled, every submission the
	// primary counted must end without a second simulation.
	if !primary.srv.Cancel(bj.ID) {
		t.Fatal("blocker cancel rejected")
	}
	waitFor(t, "the primary to drain", func() bool {
		st := primary.srv.Stats()
		ended := st.Canceled + st.Completed + st.Failed + st.PeerFillHits
		return st.QueueDepth == 0 && st.Inflight == 0 && ended == st.Submitted
	})
	// The only simulation the primary started was the blocker's. A
	// loser it counted ended cancelled, or, had it arrived after the
	// winner finished, was answered by peer fill from the winner.
	pst := primary.srv.Stats()
	t.Logf("primary counted %d submissions besides the blocker's", pst.Submitted-1)
	if pst.Simulations != 1 {
		t.Fatalf("primary simulations = %d, want just the blocker's", pst.Simulations)
	}
	if pst.Canceled+pst.PeerFillHits != pst.Submitted {
		t.Fatalf("primary: %d submissions, %d cancelled, %d peer-filled", pst.Submitted, pst.Canceled, pst.PeerFillHits)
	}
	// And the spec was simulated exactly once fleet-wide — on the
	// winning replica.
	if sims := byURL[r.node].srv.Stats().Simulations; sims != 1 {
		t.Fatalf("replica simulations = %d", sims)
	}
}

func mustKey(t *testing.T, spec server.RunSpec) string {
	t.Helper()
	key, err := server.SpecKey(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRerouteOn429 proves a shard answering 429 is retried on the next
// replica instead of surfacing the backpressure to the client.
func TestRerouteOn429(t *testing.T) {
	// A fake always-overloaded node plus a real worker.
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/healthz") {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer overloaded.Close()
	real, _ := startWorker(t, nil)

	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{overloaded.URL, real.url},
		VNodes:         16,
		Replicas:       2,
		HedgeAfterMin:  time.Second,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	spec := specOwnedBy(t, c, overloaded.URL)
	r := submitVia(t, c.Handler(), spec, "")
	if r.status != http.StatusOK || r.Status != "done" {
		t.Fatalf("submit via overloaded primary: %+v", r)
	}
	if r.node != real.url {
		t.Fatalf("served by %s, want the real node", r.node)
	}
	if st := c.Stats(); st.Reroutes429 < 1 {
		t.Fatalf("429 reroute not counted: %+v", st)
	}
}

// TestForwardSetIsRPlusOne pins what Replicas means on the forward
// path: with every node pushing back, a submission tries exactly the
// key's first R+1 owners, each once — the R that can hold the result
// plus one that can simulate it.
func TestForwardSetIsRPlusOne(t *testing.T) {
	for _, tc := range []struct{ replicas, want int }{{1, 2}, {2, 3}} {
		var mu sync.Mutex
		dials := map[string]int{}
		urls := make([]string, 3)
		for i := range urls {
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/healthz" {
					return
				}
				mu.Lock()
				dials[r.Host]++
				mu.Unlock()
				http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			}))
			defer stub.Close()
			urls[i] = stub.URL
		}
		c, err := NewCoordinator(CoordinatorConfig{
			Peers:          urls,
			VNodes:         16,
			Replicas:       tc.replicas,
			HedgeAfterMin:  time.Minute,
			HedgeAfterMax:  time.Minute,
			HealthInterval: time.Hour,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := submitVia(t, c.Handler(), testSpec(1), "")
		c.Close()
		if r.status != http.StatusTooManyRequests {
			t.Fatalf("R=%d: status %d, want 429 once every owner pushed back", tc.replicas, r.status)
		}
		mu.Lock()
		if len(dials) != tc.want {
			t.Fatalf("R=%d: dialled %d distinct nodes %v, want %d", tc.replicas, len(dials), dials, tc.want)
		}
		for node, n := range dials {
			if n != 1 {
				t.Fatalf("R=%d: node %s dialled %d times, want once", tc.replicas, node, n)
			}
		}
		mu.Unlock()
	}
}

// TestQuotaRejectsOverLimitTenant: the token bucket answers 429 before
// any forwarding happens.
func TestQuotaRejectsOverLimitTenant(t *testing.T) {
	w, _ := startWorker(t, nil)
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{w.url},
		VNodes:         16,
		QuotaRate:      0.001, // effectively no refill during the test
		QuotaBurst:     2,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	spec := testSpec(3)
	for i := 0; i < 2; i++ {
		if r := submitVia(t, c.Handler(), spec, "greedy"); r.status != http.StatusOK {
			t.Fatalf("request %d inside burst rejected: %+v", i, r)
		}
	}
	r := submitVia(t, c.Handler(), spec, "greedy")
	if r.status != http.StatusTooManyRequests {
		t.Fatalf("over-quota request got %d, want 429", r.status)
	}
	// Another tenant is unaffected.
	if r := submitVia(t, c.Handler(), spec, "patient"); r.status != http.StatusOK {
		t.Fatalf("other tenant rejected: %+v", r)
	}
	if st := c.Stats(); st.QuotaRejected != 1 {
		t.Fatalf("quota counter: %+v", st)
	}
}

// TestFleetAggregation checks /v1/fleet merges node stats, ownership
// and coordinator counters.
func TestFleetAggregation(t *testing.T) {
	workers, c := startFleet(t, 3, nil)
	submitVia(t, c.Handler(), testSpec(21), "t")
	submitVia(t, c.Handler(), testSpec(22), "t")

	req := httptest.NewRequest(http.MethodGet, "/v1/fleet", nil)
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/fleet -> %d", rec.Code)
	}
	var fleet Fleet
	if err := json.Unmarshal(rec.Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Nodes) != len(workers) {
		t.Fatalf("fleet nodes: %+v", fleet.Nodes)
	}
	var share float64
	for _, n := range fleet.Nodes {
		if !n.Alive || n.Stats == nil {
			t.Fatalf("node %s: alive=%v stats=%v err=%s", n.URL, n.Alive, n.Stats != nil, n.Error)
		}
		share += n.Ownership
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("ownership shares sum to %f", share)
	}
	if fleet.Totals.Submitted < 2 || fleet.Totals.Simulations != 2 {
		t.Fatalf("totals: %+v", fleet.Totals)
	}
	if fleet.Coordinator.Forwards != 2 || fleet.Coordinator.CacheMisses != 2 {
		t.Fatalf("coordinator stats: %+v", fleet.Coordinator)
	}

	// The metrics endpoint renders the same counters in Prometheus
	// text form.
	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"simd_cluster_nodes 3",
		"simd_cluster_nodes_alive 3",
		"simd_cluster_forwards_total 2",
		"simd_cluster_ownership{node=",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHealthProberRevivesNode: the background prober flips liveness
// both ways.
func TestHealthProberRevivesNode(t *testing.T) {
	var down sync.Mutex
	dead := false
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		down.Lock()
		d := dead
		down.Unlock()
		if d {
			http.Error(w, "dying", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer node.Close()

	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{node.URL},
		VNodes:         8,
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	waitFor(t, "initial liveness", func() bool { return c.ring.AliveCount() == 1 })
	down.Lock()
	dead = true
	down.Unlock()
	waitFor(t, "death detection", func() bool { return c.ring.AliveCount() == 0 })
	down.Lock()
	dead = false
	down.Unlock()
	waitFor(t, "revival", func() bool { return c.ring.AliveCount() == 1 })
	if st := c.Stats(); st.NodeDeaths < 1 || st.NodeRevivals < 1 {
		t.Fatalf("transition counters: %+v", st)
	}
}

// TestTwoCoordinatorsServeOneFleet: job IDs name their worker, so a
// job submitted through one coordinator is polled, streamed and
// cancelled through another that never saw the submission. IDs that
// name no current member are refused without any upstream request.
func TestTwoCoordinatorsServeOneFleet(t *testing.T) {
	workers, a := startFleet(t, 3, nil)
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.url
	}
	// Job-scoped requests b sent to any worker; the member sync that a
	// removal starts uses another path.
	var upstream atomic.Int64
	b := startCoordinator(t, urls, &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if strings.HasPrefix(req.URL.Path, "/v1/runs/") {
			upstream.Add(1)
		}
		return http.DefaultTransport.RoundTrip(req)
	})})
	ha, hb := a.Handler(), b.Handler()
	do := func(h http.Handler, method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}

	body, _ := json.Marshal(testSpec(31))
	rec := httptest.NewRecorder()
	ha.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))) // no wait: 202 + id
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit via a -> %d: %s", rec.Code, rec.Body.String())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("no job id in %s", rec.Body.String())
	}
	owner := rec.Header().Get("X-Simd-Node")
	if tag, ok := server.JobNodeTag(sub.ID); !ok || tag != server.NodeTag(owner) {
		t.Fatalf("job id %q does not carry the tag of its owner %s", sub.ID, owner)
	}

	waitFor(t, "job to finish, polled via b", func() bool {
		rec := do(hb, http.MethodGet, "/v1/runs/"+sub.ID)
		var snap struct {
			Status string `json:"status"`
		}
		return rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &snap) == nil && snap.Status == "done"
	})
	rec = do(hb, http.MethodGet, "/v1/runs/"+sub.ID+"/events")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"type":"done"`) {
		t.Fatalf("events via b -> %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(hb, http.MethodDelete, "/v1/runs/"+sub.ID); rec.Code != http.StatusOK {
		t.Fatalf("DELETE via b -> %d: %s", rec.Code, rec.Body.String())
	}
	if upstream.Load() < 3 {
		t.Fatalf("b proxied %d job requests, want at least 3", upstream.Load())
	}

	// Remove the owner from b only: a still reaches the job, b no
	// longer counts the node as a member and must not dial it.
	if _, err := b.ApplyMemberChange(MemberChange{Action: "remove", Node: owner}); err != nil {
		t.Fatal(err)
	}
	if rec := do(ha, http.MethodGet, "/v1/runs/"+sub.ID); rec.Code != http.StatusOK {
		t.Fatalf("job via a after b dropped its owner -> %d", rec.Code)
	}
	before := upstream.Load()
	for _, id := range []string{
		"0123456789ab-1", // untagged
		server.NodeTag("http://not-a-member:1") + "-0123456789ab-1", // unknown tag
		sub.ID, // owner removed from b's member list
	} {
		for _, req := range []struct{ method, path string }{
			{http.MethodGet, "/v1/runs/" + id},
			{http.MethodGet, "/v1/runs/" + id + "/events"},
			{http.MethodDelete, "/v1/runs/" + id},
		} {
			if rec := do(hb, req.method, req.path); rec.Code != http.StatusNotFound {
				t.Fatalf("%s %s via b -> %d, want 404", req.method, req.path, rec.Code)
			}
		}
	}
	if n := upstream.Load() - before; n != 0 {
		t.Fatalf("404 answers dialled upstream %d times, want 0", n)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestJobNodeResolvesOnlyMembers: the coordinator maps a job ID to the
// current member its tag names, and to nothing else.
func TestJobNodeResolvesOnlyMembers(t *testing.T) {
	n0, n1, gone := "http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"
	c := startCoordinator(t, []string{n0, n1, gone}, nil)
	c.ring.Remove(gone)
	for _, tc := range []struct {
		id, want string
	}{
		{server.NodeTag(n0) + "-0123456789ab-1", n0},
		{server.NodeTag(n1) + "-0123456789ab-7", n1},
		{server.NodeTag(gone) + "-0123456789ab-1", ""},
		{server.NodeTag("http://127.0.0.1:1/") + "-0123456789ab-1", ""}, // spelled differently
		{"0123456789ab-1", ""},
		{strings.ToUpper(server.NodeTag(n0)) + "-0123456789ab-1", ""},
		{server.NodeTag(n0), ""},
		{"", ""},
	} {
		got, ok := c.jobNode(tc.id)
		if got != tc.want || ok != (tc.want != "") {
			t.Errorf("jobNode(%q) = %q, %v; want %q", tc.id, got, ok, tc.want)
		}
	}
}

// TestRetryAfterComputedNotHardcoded pins both 429 paths: the quota
// rejection derives Retry-After from the token bucket's refill time,
// and a reroute-exhausted rejection replays the worker's own estimate
// instead of the old hardcoded "1".
func TestRetryAfterComputedNotHardcoded(t *testing.T) {
	// Quota path: rate 0.5/sec, burst 1 -> after one spend the next
	// token is 2s away.
	w, _ := startWorker(t, nil)
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{w.url},
		VNodes:         16,
		QuotaRate:      0.5,
		QuotaBurst:     1,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if r := submitVia(t, c.Handler(), testSpec(51), "greedy"); r.status != http.StatusOK {
		t.Fatalf("first request rejected: %+v", r)
	}
	body, _ := json.Marshal(testSpec(51))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "greedy")
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota request got %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("quota Retry-After = %q, want %q (bucket refill time)", got, "2")
	}

	// Exhausted path: every replica answers 429 with its own estimate;
	// the coordinator must replay the worker's header, not invent one.
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/healthz") {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer overloaded.Close()
	c2, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{overloaded.URL},
		VNodes:         16,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	rec = httptest.NewRecorder()
	c2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted reroute got %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("exhausted Retry-After = %q, want the worker's %q", got, "7")
	}
}

// TestProxyLargeBodyIntact: the job proxy streams a multi-MB status
// body through byte-for-byte, with a truthful Content-Length.
func TestProxyLargeBodyIntact(t *testing.T) {
	big := []byte(`{"status":"done","result":"` + strings.Repeat("x", 3<<20) + `"}`)
	var upstream *httptest.Server
	upstream = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/runs/"+server.NodeTag(upstream.URL)+"-big" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(big)))
		w.Write(big)
	}))
	defer upstream.Close()
	c := startCoordinator(t, []string{upstream.URL}, nil)

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+server.NodeTag(upstream.URL)+"-big", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("large status GET -> %d", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), big) {
		t.Fatalf("large body corrupted in proxy: got %d bytes, want %d", rec.Body.Len(), len(big))
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(big)) {
		t.Fatalf("Content-Length %q, want %d", got, len(big))
	}
}

// TestForwardHedgeLoserGoroutineExits pins the lifecycle of the losing
// forward arm itself: once forward has returned the winning answer and
// cancelled the race, the loser's goroutine must observe the cancel and
// exit instead of parking forever on the results channel. Regression
// test for the hedged-forward spawn being made cancellable (it now
// selects on ctx.Done alongside the result send).
func TestForwardHedgeLoserGoroutineExits(t *testing.T) {
	defer leakcheck.Check(t)()

	// The slow arm wedges until its client — the coordinator's cancelled
	// request — goes away; the fast arm answers immediately.
	slowHit := make(chan struct{}, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case slowHit <- struct{}{}:
		default:
		}
		// Drain the body so the server's background read — which is what
		// detects the coordinator hanging up — can run, then wedge until
		// that disconnect cancels the request context (bounded so a
		// detection regression fails the test instead of hanging it).
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
			t.Error("loser arm's disconnect never reached the slow node's handler")
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"done"}`))
	}))
	defer fast.Close()

	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{slow.URL, fast.URL},
		VNodes:         16,
		Replicas:       2,
		HedgeAfterMin:  20 * time.Millisecond,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.forward(context.Background(), []string{slow.URL, fast.URL}, "/v1/runs?wait=1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.node != fast.URL || !r.hedged {
		t.Fatalf("winner = %q (hedged=%v), want the hedge onto %q", r.node, r.hedged, fast.URL)
	}
	select {
	case <-slowHit:
	default:
		t.Fatal("primary arm never reached the slow node; the race was not real")
	}
	// The deferred leakcheck.Check verifies the loser goroutine and the
	// wedged handler both unwind once forward's cancel propagates.
}

// rawAnswer is one POST /v1/runs?wait=1 answer as it crossed the wire.
type rawAnswer struct {
	body          []byte
	cacheHeader   string
	contentLength int64
	Cache         string          `json:"cache"`
	Status        string          `json:"status"`
	Result        json.RawMessage `json:"result"`
}

func postRaw(t *testing.T, baseURL string, spec server.RunSpec) rawAnswer {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(baseURL+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	a := rawAnswer{cacheHeader: resp.Header.Get(server.CacheHeader), contentLength: resp.ContentLength}
	if a.body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s -> %d: %s", baseURL, resp.StatusCode, a.body)
	}
	if err := json.Unmarshal(a.body, &a); err != nil {
		t.Fatalf("answer from %s does not parse: %v\n%s", baseURL, err, a.body)
	}
	return a
}

// TestSubmitAnswersCarryStoredBytes: a fresh simulation, a memory hit,
// a disk hit and a peer-filled hit answer one spec with the same result
// bytes; every answer parses, its X-Simd-Cache header repeats its cache
// field and its Content-Length is exact; and the coordinator counts
// hits and misses from the header alone.
func TestSubmitAnswersCarryStoredBytes(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	workers, c := startFleet(t, 2, func(i int, cfg *server.Config) {
		st, err := store.New(dirs[i], 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	})
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	spec := testSpec(11)
	key := mustKey(t, spec)
	owner, other := workers[0], workers[1]
	if c.Owners(key)[0] != owner.url {
		owner, other = other, owner
	}
	ownerDir := dirs[0]
	if owner != workers[0] {
		ownerDir = dirs[1]
	}

	miss := postRaw(t, front.URL, spec)
	memHit := postRaw(t, front.URL, spec)
	// A second node over the owner's cache directory starts with an
	// empty memory tier, so it answers from disk.
	st, err := store.New(ownerDir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := startWorker(t, func(cfg *server.Config) { cfg.Store = st; cfg.PeerFill = nil })
	diskHit := postRaw(t, fresh.url, spec)
	peerHit := postRaw(t, other.url, spec)

	if got := st.Stats().DiskHits; got != 1 {
		t.Fatalf("fresh node: %d disk hits, want 1", got)
	}
	if got := other.srv.Stats().PeerFillHits; got != 1 {
		t.Fatalf("non-owner: %d peer fills, want 1", got)
	}
	for name, a := range map[string]rawAnswer{"miss": miss, "memory hit": memHit, "disk hit": diskHit, "peer hit": peerHit} {
		wantCache := "hit"
		if name == "miss" {
			wantCache = "miss"
		}
		if a.Status != "done" || a.Cache != wantCache || a.cacheHeader != a.Cache {
			t.Errorf("%s: status %q, cache %q, %s %q", name, a.Status, a.Cache, server.CacheHeader, a.cacheHeader)
		}
		if a.contentLength != int64(len(a.body)) {
			t.Errorf("%s: Content-Length %d, body %d bytes", name, a.contentLength, len(a.body))
		}
		if !bytes.Equal(a.Result, miss.Result) {
			t.Errorf("%s: result bytes differ from the simulated answer's", name)
		}
	}
	if cs := c.Stats(); cs.CacheHits != 1 || cs.CacheMisses != 1 {
		t.Fatalf("coordinator counted %d hits, %d misses; want 1 and 1", cs.CacheHits, cs.CacheMisses)
	}

	// A worker whose header says hit while its body names no cache is
	// counted as a hit: the coordinator reads the header, not the body.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.CacheHeader, "hit")
		io.WriteString(w, `{"status":"done"}`)
	}))
	defer stub.Close()
	sc := startCoordinator(t, []string{stub.URL}, nil)
	if r := submitVia(t, sc.Handler(), spec, ""); r.status != http.StatusOK {
		t.Fatalf("stub submit: %+v", r)
	}
	if cs := sc.Stats(); cs.CacheHits != 1 || cs.CacheMisses != 0 {
		t.Fatalf("header-only hit counted as %d hits, %d misses", cs.CacheHits, cs.CacheMisses)
	}
}

// BenchmarkFleetHit times one memory-tier cache hit through an
// in-process coordinator and one worker, over loopback HTTP on both
// hops; -benchmem reports its bytes and allocations.
func BenchmarkFleetHit(b *testing.B) {
	st, err := store.New(b.TempDir(), 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: st, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	node := httptest.NewServer(srv.Handler())
	defer node.Close()
	defer srv.Shutdown(context.Background())
	c, err := NewCoordinator(CoordinatorConfig{Peers: []string{node.URL}, HealthInterval: time.Hour, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	body, _ := json.Marshal(server.RunSpec{Scheme: "rrob", Mixes: []string{"Mix 1"}, Budget: 1000, Seed: 1})
	post := func() {
		resp, err := http.Post(front.URL+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
	post() // the miss that fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if st.Stats().Hits < uint64(b.N) {
		b.Fatalf("%d memory hits for %d requests", st.Stats().Hits, b.N)
	}
}
