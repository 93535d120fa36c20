package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// swapHandler lets a worker's HTTP handler be installed after its URL
// is known (httptest assigns ports at start).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// repWorker is one in-process fleet node with replication wired: peer
// cache fill, replica writes (R=2) and the membership endpoint, exactly
// as cmd/simd assembles them.
type repWorker struct {
	srv  *server.Server
	st   *store.Store
	ts   *httptest.Server
	url  string
	ring *Ring
}

func (w *repWorker) kill() {
	w.ts.Listener.Close()
	w.ts.CloseClientConnections()
}

func (w *repWorker) holds(key string) bool {
	_, ok := w.st.Get(key)
	return ok
}

// startRepWorker boots one replication-enabled worker whose ring spans
// urls (which must include its own URL once known — pass nil and call
// wire later for members started before the fleet list is final).
func startRepWorker(t *testing.T, urls []string) *repWorker {
	t.Helper()
	st, err := store.New(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var (
		filler     *PeerFiller
		replicator *Replicator
		mu         sync.Mutex
	)
	srv, err := server.New(server.Config{
		Store:      st,
		QueueSize:  16,
		Workers:    2,
		SimWorkers: 2,
		JobTimeout: time.Minute,
		Logf:       t.Logf,
		PeerFill: func(ctx context.Context, key string) ([]byte, bool) {
			mu.Lock()
			f := filler
			mu.Unlock()
			if f == nil {
				return nil, false
			}
			return f.Fill(ctx, key)
		},
		Replicate: func(ctx context.Context, key string, data []byte) (int, int) {
			mu.Lock()
			r := replicator
			mu.Unlock()
			if r == nil {
				return 0, 0
			}
			return r.Replicate(ctx, key, data)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := &swapHandler{h: srv.Handler()}
	ts := httptest.NewServer(sh)
	w := &repWorker{srv: srv, st: st, ts: ts, url: ts.URL}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	members := append([]string(nil), urls...)
	members = append(members, w.url)
	ring, err := NewRing(members, 16)
	if err != nil {
		t.Fatal(err)
	}
	w.ring = ring
	mu.Lock()
	filler = NewPeerFiller(w.url, ring, 0, time.Second, nil)
	replicator = NewReplicator(w.url, ring, 2, time.Second, nil)
	mu.Unlock()
	sh.swap(WorkerMux(srv.Handler(), ring, t.Logf))
	return w
}

// startReplicatedFleet boots n workers with R=2 replication plus a
// coordinator whose Replicas matches. Every node's ring spans the
// same member list.
func startReplicatedFleet(t *testing.T, n int) ([]*repWorker, *Coordinator) {
	t.Helper()
	workers := make([]*repWorker, 0, n)
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		w := startRepWorker(t, urls)
		workers = append(workers, w)
		urls = append(urls, w.url)
	}
	// Early workers were built before later URLs existed; converge every
	// ring on the full list the way a coordinator sync would.
	for _, w := range workers {
		if _, _, err := w.ring.SetMembers(urls); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          urls,
		VNodes:         16,
		Replicas:       2,
		HedgeAfterMin:  500 * time.Millisecond,
		HealthInterval: time.Hour, // tests drive liveness explicitly
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return workers, c
}

// holdersOf counts which live workers hold key locally.
func holdersOf(workers []*repWorker, key string) int {
	n := 0
	for _, w := range workers {
		if w.holds(key) {
			n++
		}
	}
	return n
}

func totalSimulations(workers []*repWorker) uint64 {
	var n uint64
	for _, w := range workers {
		n += w.srv.Stats().Simulations
	}
	return n
}

func postMembers(t *testing.T, c *Coordinator, ch MemberChange) MembersReply {
	t.Helper()
	body, _ := json.Marshal(ch)
	req := httptest.NewRequest(http.MethodPost, "/v1/members", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/members -> %d: %s", rec.Code, rec.Body.String())
	}
	var reply MembersReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestReplicatedWritesSurvivePrimaryDeath is the R=2 chaos acceptance:
// a result's primary is SIGKILLed after completion, and the result is
// still served through the coordinator byte-identical, with the fleet's
// simulation count unchanged.
func TestReplicatedWritesSurvivePrimaryDeath(t *testing.T) {
	workers, c := startReplicatedFleet(t, 3)
	byURL := map[string]*repWorker{}
	for _, w := range workers {
		byURL[w.url] = w
	}

	spec := testSpec(77)
	r1 := submitVia(t, c.Handler(), spec, "chaos")
	if r1.status != http.StatusOK || r1.Status != "done" || r1.Cache != "miss" {
		t.Fatalf("first submit: %+v", r1)
	}
	key := mustKey(t, spec)
	// Replication is asynchronous: wait until both R=2 owners hold it.
	owners := c.Ring().Owners(key, 2)
	waitFor(t, "replica to land on the second owner", func() bool {
		return byURL[owners[0]].holds(key) && byURL[owners[1]].holds(key)
	})

	primary := byURL[owners[0]]
	primary.kill()

	simsBefore := totalSimulations(workers) // the dead node's counter is frozen with it
	r2 := submitVia(t, c.Handler(), spec, "chaos")
	if r2.status != http.StatusOK || r2.Cache != "hit" {
		t.Fatalf("submit after primary death: %+v", r2)
	}
	if r2.node == primary.url {
		t.Fatalf("answer claims to come from the dead primary")
	}
	if !bytes.Equal(r2.Result, r1.Result) {
		t.Fatal("replica served different bytes than the original result")
	}
	if sims := totalSimulations(workers); sims != simsBefore {
		t.Fatalf("fleet re-simulated: %d -> %d", simsBefore, sims)
	}
}

// TestMembershipChangeHandoff is the tentpole acceptance: adding a node
// through POST /v1/members kicks a background handoff that restores
// primary placement on the new ring, removing one does the same, and
// through the whole sequence every key stays readable through the
// coordinator byte-identical with zero re-simulations.
func TestMembershipChangeHandoff(t *testing.T) {
	workers, c := startReplicatedFleet(t, 3)

	// The fourth worker starts now but joins only after seeding, so the
	// seeds can be chosen to give it at least one key as primary: its
	// port, and with it the ring split, changes from run to run.
	joined := startRepWorker(t, urlsOf(workers))
	grown, err := NewRing(append(urlsOf(workers), joined.url), 16)
	if err != nil {
		t.Fatal(err)
	}

	// Seed the fleet with at least a dozen distinct results.
	const nKeys = 12
	results := make(map[string][]byte, nKeys)
	var keys []string
	var seeds []uint64
	joinedOwns := false
	for seed := uint64(100); len(keys) < nKeys || !joinedOwns; seed++ {
		spec := testSpec(seed)
		r := submitVia(t, c.Handler(), spec, "seed")
		if r.status != http.StatusOK || r.Status != "done" {
			t.Fatalf("seed %d: %+v", seed, r)
		}
		key := mustKey(t, spec)
		keys = append(keys, key)
		seeds = append(seeds, seed)
		results[key] = r.Result
		joinedOwns = joinedOwns || grown.Owners(key, 1)[0] == joined.url
	}
	waitFor(t, "replication to reach R=2 everywhere", func() bool {
		for _, key := range keys {
			if holdersOf(workers, key) < 2 {
				return false
			}
		}
		return true
	})

	// Grow the fleet: the fourth worker joins over the membership API.
	workers = append(workers, joined)
	reply := postMembers(t, c, MemberChange{Action: "add", Node: joined.url})
	if !reply.Changed || !reply.Handoff || len(reply.Members) != 4 {
		t.Fatalf("add reply: %+v", reply)
	}
	waitFor(t, "handoff after add", func() bool { return c.HandoffIdle() })

	// Handoff restored the invariant the router depends on: every key's
	// new primary holds it locally.
	for _, key := range keys {
		primary := c.Ring().Owners(key, 2)[0]
		if !workerAt(workers, primary).holds(key) {
			t.Fatalf("key %s: new primary %s does not hold it after handoff", key[:12], primary)
		}
	}
	st := c.Stats()
	if st.HandoffRuns < 1 || st.HandoffMoved < 1 {
		t.Fatalf("handoff counters after add: %+v", st)
	}
	if st.MembersAdded != 1 {
		t.Fatalf("membership counters: %+v", st)
	}

	// The coordinator told the workers: their rings converge on the new
	// member list without a restart.
	waitFor(t, "worker rings to converge", func() bool {
		for _, w := range workers {
			if len(w.ring.Nodes()) != 4 {
				return false
			}
		}
		return true
	})

	// Shrink it again: drop one of the founding members and kill it, so
	// reads must not depend on it.
	victim := workers[0]
	reply = postMembers(t, c, MemberChange{Action: "remove", Node: victim.url})
	if !reply.Changed || len(reply.Members) != 3 {
		t.Fatalf("remove reply: %+v", reply)
	}
	waitFor(t, "handoff after remove", func() bool { return c.HandoffIdle() })
	victim.kill()
	live := workers[1:]

	simsBefore := totalSimulations(live)
	for _, seed := range seeds {
		spec := testSpec(seed)
		r := submitVia(t, c.Handler(), spec, "reread")
		key := mustKey(t, spec)
		if r.status != http.StatusOK || r.Cache != "hit" {
			t.Fatalf("re-read %s after add+remove: %+v", key[:12], r)
		}
		if !bytes.Equal(r.Result, results[key]) {
			t.Fatalf("key %s: bytes changed across membership churn", key[:12])
		}
	}
	if sims := totalSimulations(live); sims != simsBefore {
		t.Fatalf("membership churn caused re-simulation: %d -> %d", simsBefore, sims)
	}

	// The handoff metrics surface on /metrics.
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"simd_cluster_handoff_runs_total",
		"simd_cluster_handoff_keys_moved_total",
		"simd_cluster_handoff_keys_skipped_total",
		"simd_cluster_handoff_errors_total",
		"simd_cluster_members_added_total 1",
		"simd_cluster_members_removed_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestHandoffSurvivesNodeDeathMidChange: a founding member dies right
// as the fleet grows, so the handoff pass runs against an unreachable
// source. The pass must complete (errors counted, not fatal) and every
// key stays readable through the coordinator with zero re-simulations —
// the R=2 copies cover the dead node's holdings.
func TestHandoffSurvivesNodeDeathMidChange(t *testing.T) {
	workers, c := startReplicatedFleet(t, 3)

	const nKeys = 8
	results := make(map[string][]byte, nKeys)
	for seed := uint64(300); seed < 300+nKeys; seed++ {
		spec := testSpec(seed)
		r := submitVia(t, c.Handler(), spec, "seed")
		if r.status != http.StatusOK || r.Status != "done" {
			t.Fatalf("seed %d: %+v", seed, r)
		}
		results[mustKey(t, spec)] = r.Result
	}
	waitFor(t, "replication to reach R=2 everywhere", func() bool {
		for key := range results {
			if holdersOf(workers, key) < 2 {
				return false
			}
		}
		return true
	})

	joined := startRepWorker(t, urlsOf(workers))
	reply := postMembers(t, c, MemberChange{Action: "add", Node: joined.url})
	if !reply.Handoff {
		t.Fatalf("add reply: %+v", reply)
	}
	// Kill a founding member immediately: the handoff pass races the
	// death and must cope with a source that stops answering.
	victim := workers[0]
	victim.kill()
	waitFor(t, "handoff to finish despite the dead source", func() bool { return c.HandoffIdle() })

	live := append([]*repWorker{}, workers[1:]...)
	live = append(live, joined)
	simsBefore := totalSimulations(live)
	for seed := uint64(300); seed < 300+nKeys; seed++ {
		spec := testSpec(seed)
		r := submitVia(t, c.Handler(), spec, "reread")
		if r.status != http.StatusOK || r.Cache != "hit" {
			t.Fatalf("re-read after mid-change death: %+v", r)
		}
		if !bytes.Equal(r.Result, results[mustKey(t, spec)]) {
			t.Fatal("bytes changed across mid-change death")
		}
	}
	if sims := totalSimulations(live); sims != simsBefore {
		t.Fatalf("mid-change death caused re-simulation: %d -> %d", simsBefore, sims)
	}
}

func urlsOf(workers []*repWorker) []string {
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.url
	}
	return urls
}

func workerAt(workers []*repWorker, url string) *repWorker {
	for _, w := range workers {
		if w.url == url {
			return w
		}
	}
	return nil
}
