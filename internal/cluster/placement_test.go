package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// placeR is the replication factor of the placement fleets below.
const placeR = 2

// testNet resolves the fleet's fixed worker names (http://w0.test, ...)
// to the loopback address each listener happened to bind, the way
// perfbench's netmap does. The ring hashes member URLs, so fixed names
// make placement, and with it every scenario below, repeat exactly.
type testNet struct {
	mu    sync.Mutex
	addrs map[string]string // "w0.test:80" -> "127.0.0.1:40123"
}

func (n *testNet) bind(url, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.addrs == nil {
		n.addrs = map[string]string{}
	}
	n.addrs[strings.TrimPrefix(url, "http://")+":80"] = addr
}

// client dials through the map and never through a proxy.
func (n *testNet) client(t *testing.T) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		n.mu.Lock()
		real, ok := n.addrs[addr]
		n.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("no fleet member named %s", addr)
		}
		var d net.Dialer
		return d.DialContext(ctx, network, real)
	}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

func workerName(i int) string { return fmt.Sprintf("http://w%d.test", i) }

// workerNames returns the names of workers lo..hi-1.
func workerNames(lo, hi int) []string {
	var out []string
	for i := lo; i < hi; i++ {
		out = append(out, workerName(i))
	}
	return out
}

// placeWorker is one in-process simd worker of a placeFleet.
type placeWorker struct {
	url  string
	dir  string
	srv  *server.Server
	st   *store.Store
	ts   *httptest.Server
	ring *Ring
	dead bool
}

// kill severs the worker's network presence like a SIGKILL would.
func (w *placeWorker) kill() {
	w.ts.Listener.Close()
	w.ts.CloseClientConnections()
	w.dead = true
}

func (w *placeWorker) holds(key string) bool {
	for _, k := range w.st.Keys() {
		if k == key {
			return true
		}
	}
	return false
}

// placeFleet is an in-process fleet wired as cmd/simd wires it: each
// worker has peer fill, R=2 replication, the membership endpoint and
// placement repair on its ring's OnChange hook; the coordinator dials
// workers through the same name map.
type placeFleet struct {
	t       *testing.T
	net     *testNet
	coord   *Coordinator
	workers map[string]*placeWorker // current process behind each name
	all     []*placeWorker          // every process started, restarts included
	passes  atomic.Int64            // placement repair passes started
	repairs atomic.Int64            // placement repair passes still running
}

func newPlaceFleet(t *testing.T, n int, tune func(*CoordinatorConfig)) *placeFleet {
	t.Helper()
	f := &placeFleet{t: t, net: &testNet{}, workers: map[string]*placeWorker{}}
	peers := workerNames(0, n)
	for _, url := range peers {
		f.start(url, peers, t.TempDir())
	}
	cfg := CoordinatorConfig{
		Peers:          peers,
		VNodes:         16,
		Replicas:       placeR,
		HedgeAfterMin:  30 * time.Second, // no hedges: simulation counts are exact
		HedgeAfterMax:  30 * time.Second,
		HealthInterval: time.Hour, // tests drive liveness explicitly
		Client:         f.net.client(t),
		Logf:           t.Logf,
	}
	if tune != nil {
		tune(&cfg)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	f.coord = c
	return f
}

// start boots a worker named url whose boot-time member list is peers
// and whose cache lives in dir (a restart passes the old one).
func (f *placeFleet) start(url string, peers []string, dir string) *placeWorker {
	t := f.t
	t.Helper()
	st, err := store.New(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(peers, 16)
	if err != nil {
		t.Fatal(err)
	}
	client := f.net.client(t)
	rep := NewReplicator(url, ring, placeR, time.Second, client)
	srv, err := server.New(server.Config{
		SelfURL:    url,
		Store:      st,
		QueueSize:  64,
		Workers:    2,
		SimWorkers: 1,
		JobTimeout: time.Minute,
		Logf:       t.Logf,
		PeerFill:   NewPeerFiller(url, ring, 0, time.Second, client).Fill,
		Replicate:  rep.Replicate,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring.OnChange(func(before []string) {
		f.passes.Add(1)
		f.repairs.Add(1)
		srv.Rereplicate(func(ctx context.Context) (int, int) {
			defer f.repairs.Add(-1)
			return rep.Repair(ctx, before, st)
		})
	})
	ts := httptest.NewServer(WorkerMux(srv.Handler(), ring, t.Logf))
	f.net.bind(url, ts.Listener.Addr().String())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	w := &placeWorker{url: url, dir: dir, srv: srv, st: st, ts: ts, ring: ring}
	f.workers[url] = w
	f.all = append(f.all, w)
	return w
}

// members applies a membership change through the coordinator's API.
func (f *placeFleet) members(ch MemberChange) MembersReply {
	f.t.Helper()
	body, _ := json.Marshal(ch)
	rec := httptest.NewRecorder()
	f.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/members", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		f.t.Fatalf("POST /v1/members -> %d: %s", rec.Code, rec.Body.String())
	}
	var reply MembersReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		f.t.Fatal(err)
	}
	return reply
}

// settle waits until every placement repair pass has returned, which
// is after each of its pushes has been answered.
func (f *placeFleet) settle() {
	f.t.Helper()
	waitFor(f.t, "placement repair to finish", func() bool { return f.repairs.Load() == 0 })
}

// seeded is one cached result the scenarios re-read.
type seeded struct {
	spec   server.RunSpec
	key    string
	result []byte
}

// seed simulates n distinct specs through the coordinator and waits for
// replication to put each on its first R owners.
func (f *placeFleet) seed(n int) []seeded {
	f.t.Helper()
	out := make([]seeded, 0, n)
	for seed := uint64(1000); len(out) < n; seed++ {
		spec := testSpec(seed)
		r := submitVia(f.t, f.coord.Handler(), spec, "seed")
		if r.status != http.StatusOK || r.Status != "done" {
			f.t.Fatalf("seed %d: %+v", seed, r)
		}
		out = append(out, seeded{spec: spec, key: mustKey(f.t, spec), result: r.Result})
	}
	// Each primary pushes R-1 copies. A receiver lists a key before it
	// counts the PUT, so wait for the count as well as the placement.
	waitFor(f.t, "replication to reach the first R owners", func() bool {
		below, off := f.placement(out)
		return below == 0 && off == 0 && f.puts() == uint64(n*(placeR-1))
	})
	return out
}

// reread submits every seeded spec through the coordinator and checks
// it is a cache hit with the original bytes. It uses Errorf, not
// Fatalf, so a sweep can run on its own goroutine.
func (f *placeFleet) reread(keys []seeded) {
	for _, k := range keys {
		r := submitVia(f.t, f.coord.Handler(), k.spec, "reread")
		if r.status != http.StatusOK || r.Cache != "hit" {
			f.t.Errorf("re-read %s: %d cache=%q status=%q %s", k.key[:12], r.status, r.Cache, r.Status, r.Error)
			continue
		}
		if !bytes.Equal(r.Result, k.result) {
			f.t.Errorf("re-read %s: bytes differ from the original result", k.key[:12])
		}
	}
}

// placement counts the keys held by fewer than R live members and the
// keys missing from at least one of their first R owners on the
// coordinator's ring.
func (f *placeFleet) placement(keys []seeded) (belowR, offOwners int) {
	var live []*placeWorker
	for _, url := range f.coord.Ring().Nodes() {
		if w := f.workers[url]; !w.dead {
			live = append(live, w)
		}
	}
	want := placeR
	if len(live) < want {
		want = len(live)
	}
	for _, k := range keys {
		n := 0
		for _, w := range live {
			if w.holds(k.key) {
				n++
			}
		}
		if n < want {
			belowR++
		}
		for _, o := range f.coord.Ring().Owners(k.key, placeR) {
			if !f.workers[o].holds(k.key) {
				offOwners++
				break
			}
		}
	}
	return belowR, offOwners
}

// simulations sums the simulations of every worker process started.
func (f *placeFleet) simulations() uint64 {
	var n uint64
	for _, w := range f.all {
		n += w.srv.Stats().Simulations
	}
	return n
}

// puts sums the results every worker process accepted over
// PUT /v1/cache/{key}.
func (f *placeFleet) puts() uint64 {
	var n uint64
	for _, w := range f.all {
		n += w.srv.Stats().PeerStored
	}
	return n
}

// TestPlacementScenarios states the placement invariant once and checks
// it across membership changes and deaths: a result lives on its key's
// first R owners. In each scenario 24 seeded results are re-read through
// the coordinator with zero re-simulations and the original bytes, and
// once the workers' repair passes finish every key is held by each of
// its first R owners, so by at least R live workers.
func TestPlacementScenarios(t *testing.T) {
	const nKeys = 24
	scenarios := []struct {
		name    string
		workers int
		change  func(t *testing.T, f *placeFleet, keys []seeded)
	}{
		{"kill primary", 3, func(t *testing.T, f *placeFleet, keys []seeded) {
			// Replicas serve the dead primary's keys; then the operator
			// drops it from the member list and the survivors repair.
			victim := f.coord.Owners(keys[0].key)[0]
			f.workers[victim].kill()
			f.reread(keys)
			f.members(MemberChange{Action: "remove", Node: victim})
		}},
		{"add 1 node during a sweep", 3, func(t *testing.T, f *placeFleet, keys []seeded) {
			f.start(workerName(3), workerNames(0, 4), t.TempDir())
			var sweep sync.WaitGroup
			sweep.Add(1)
			go func() {
				defer sweep.Done()
				f.reread(keys)
			}()
			f.members(MemberChange{Action: "add", Node: workerName(3)})
			sweep.Wait()
		}},
		{"bulk set 3 to 7 nodes", 3, func(t *testing.T, f *placeFleet, keys []seeded) {
			for i := 3; i < 7; i++ {
				f.start(workerName(i), workerNames(0, 7), t.TempDir())
			}
			f.members(MemberChange{Action: "set", Nodes: workerNames(0, 7)})
		}},
		{"remove 1 of 4, then kill it", 4, func(t *testing.T, f *placeFleet, keys []seeded) {
			victim := workerName(3)
			f.members(MemberChange{Action: "remove", Node: victim})
			f.settle()
			f.workers[victim].kill()
		}},
	}
	t.Logf("%-28s %14s %12s %10s %14s", "scenario", "re-simulations", "keys below R", "off owners", "PUTs per change")
	for _, sc := range scenarios {
		t.Run(strings.ReplaceAll(sc.name, " ", "_"), func(t *testing.T) {
			f := newPlaceFleet(t, sc.workers, nil)
			keys := f.seed(nKeys)
			sims, puts := f.simulations(), f.puts()

			sc.change(t, f, keys)
			f.settle()
			puts = f.puts() - puts
			below, off := f.placement(keys)
			f.reread(keys)
			resims := f.simulations() - sims

			t.Logf("%-28s %14d %12d %10d %14d", sc.name, resims, below, off, puts)
			if resims != 0 {
				t.Errorf("%d re-simulations", resims)
			}
			if below != 0 || off != 0 {
				t.Errorf("%d of %d keys below R live holders, %d missing from one of their first R owners", below, nKeys, off)
			}
		})
	}
}

// TestReplicatedWritesSurvivePrimaryDeath is the R=2 chaos acceptance:
// a result's primary is SIGKILLed after completion, and the result is
// still served through the coordinator byte-identical, with the fleet's
// simulation count unchanged.
func TestReplicatedWritesSurvivePrimaryDeath(t *testing.T) {
	f := newPlaceFleet(t, 3, nil)
	spec := testSpec(77)
	r1 := submitVia(t, f.coord.Handler(), spec, "chaos")
	if r1.status != http.StatusOK || r1.Status != "done" || r1.Cache != "miss" {
		t.Fatalf("first submit: %+v", r1)
	}
	key := mustKey(t, spec)
	// Replication is asynchronous: wait until both R=2 owners hold it.
	owners := f.coord.Ring().Owners(key, 2)
	waitFor(t, "replica to land on the second owner", func() bool {
		return f.workers[owners[0]].holds(key) && f.workers[owners[1]].holds(key)
	})

	primary := f.workers[owners[0]]
	primary.kill()

	simsBefore := f.simulations() // the dead node's counter is frozen with it
	r2 := submitVia(t, f.coord.Handler(), spec, "chaos")
	if r2.status != http.StatusOK || r2.Cache != "hit" {
		t.Fatalf("submit after primary death: %+v", r2)
	}
	if r2.node == primary.url {
		t.Fatalf("answer claims to come from the dead primary")
	}
	if !bytes.Equal(r2.Result, r1.Result) {
		t.Fatal("replica served different bytes than the original result")
	}
	if sims := f.simulations(); sims != simsBefore {
		t.Fatalf("fleet re-simulated: %d -> %d", simsBefore, sims)
	}
}

// TestRevivedWorkerGetsMemberList: a worker that comes back from the
// dead with a stale peer list (a restart from an old -peers) is handed
// the coordinator's member list as soon as the prober sees it alive, so
// it routes fills and replicas on the right ring and repairs placement
// of what it holds.
func TestRevivedWorkerGetsMemberList(t *testing.T) {
	f := newPlaceFleet(t, 3, func(cfg *CoordinatorConfig) {
		cfg.HealthInterval = 20 * time.Millisecond
		cfg.HealthTimeout = 500 * time.Millisecond
	})
	keys := f.seed(6)
	victim := f.workers[workerName(1)]
	victim.kill()
	waitFor(t, "the prober to see the kill", func() bool { return !f.coord.Ring().IsAlive(victim.url) })

	passes := f.passes.Load()
	stale := []string{workerName(0), workerName(1)}
	restarted := f.start(victim.url, stale, victim.dir)
	waitFor(t, "the revived worker's ring to match the coordinator's", func() bool {
		return reflect.DeepEqual(restarted.ring.Nodes(), f.coord.Ring().Nodes())
	})
	if f.coord.Stats().NodeRevivals < 1 {
		t.Fatalf("no revival recorded: %+v", f.coord.Stats())
	}
	if f.passes.Load() == passes {
		t.Fatal("the member list reached the revived worker but started no repair pass")
	}
	f.settle()
	if below, off := f.placement(keys); below != 0 || off != 0 {
		t.Fatalf("after revival: %d keys below R, %d off their owners", below, off)
	}
}
