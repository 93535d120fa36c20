package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	tlrob "repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// The fleet-zipf workload: an in-process coordinator over two simd
// workers, wired as cmd/simd wires them, driven by a closed loop.
const (
	fleetWorkers = 2
	// fleetClients is the closed loop's width: each client sends its next
	// request only when the previous one has answered. It is no more
	// than the 2 vCPUs the benchmark is tuned on; an open loop there
	// measured the generator's own lateness (up to 35 ms), not the fleet.
	fleetClients = 2
	hotSpecs     = 64
	// missEvery places a never-seen spec at every missEvery-th request
	// (5%); each one simulates, so misses take about half the fleet's
	// time. A fixed spacing, rather than a 5% draw, keeps the miss count
	// of a window from varying with the seed.
	missEvery   = 20
	fleetBudget = 1000
	fleetScheme = "rrob"
	fleetMix    = "Mix 1"
	tenants     = 8
	// zipfS is the skew of the hot-set and tenant draws, cmd/simdload's
	// default.
	zipfS = 1.2
	// verifyEvery picks the misses whose result is recomputed in process
	// and compared byte for byte.
	verifyEvery = 25
	// reqHeader carries a request's benchmark ID across the fleet's HTTP
	// hops in a traced run.
	reqHeader = "X-Bench-Req"
)

func workerURL(i int) string { return fmt.Sprintf("http://w%d.bench", i) }

const coordURL = "http://coord.bench"

// netmap resolves the fleet's fixed logical host names to the loopback
// addresses the listeners happened to bind. The ring hashes member URLs,
// so names that do not change from run to run keep ring ownership, and
// with it each worker's share of hits and simulations, repeatable.
type netmap struct {
	mu         sync.Mutex
	addrs      map[string]string // "w0.bench:80" -> "127.0.0.1:40123"
	dials      atomic.Int64
	transports []*http.Transport
}

func (n *netmap) add(url, bound string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.addrs == nil {
		n.addrs = map[string]string{}
	}
	n.addrs[strings.TrimPrefix(url, "http://")+":80"] = bound
}

func (n *netmap) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	n.mu.Lock()
	real, ok := n.addrs[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("perfbench: no fleet member named %s", addr)
	}
	n.dials.Add(1)
	var d net.Dialer
	return d.DialContext(ctx, network, real)
}

// client returns an HTTP client with http.DefaultTransport's settings
// that dials through the map and never through a proxy. wrap, if not
// nil, wraps its transport.
func (n *netmap) client(wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.Proxy = nil
	t.DialContext = n.dial
	n.mu.Lock()
	n.transports = append(n.transports, t)
	n.mu.Unlock()
	var rt http.RoundTripper = t
	if wrap != nil {
		rt = wrap(t)
	}
	return &http.Client{Transport: rt}
}

func (n *netmap) closeIdle() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, t := range n.transports {
		t.CloseIdleConnections()
	}
}

// fleet is one running coordinator-plus-workers deployment.
type fleet struct {
	net     *netmap
	coord   *cluster.Coordinator
	servers []*server.Server
	dirs    []string
	https   []*http.Server
	// tr is the traced run's span recorder; nil while not tracing. The
	// wrappers that read it exist only in a traced run.
	tr atomic.Pointer[tracer]

	peerFillHits  atomic.Int64
	replicaPushed atomic.Int64
}

func (f *fleet) tracer() *tracer { return f.tr.Load() }

// startFleet boots the workers and the coordinator. memBytes is each
// worker's memory-cache budget; traced installs the span wrappers.
func startFleet(dir string, memBytes int64, traced bool) (*fleet, error) {
	f := &fleet{net: &netmap{}}
	peers := make([]string, fleetWorkers)
	for i := range peers {
		peers[i] = workerURL(i)
	}
	logf := log.New(os.Stderr, "simd: ", log.LstdFlags|log.Lmsgprefix).Printf
	for i := range peers {
		self := peers[i]
		wdir := filepath.Join(dir, fmt.Sprintf("w%d", i))
		st, err := store.New(wdir, memBytes)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.dirs = append(f.dirs, wdir)
		ring, err := cluster.NewRing(peers, 64)
		if err != nil {
			f.stop()
			return nil, err
		}
		filler := cluster.NewPeerFiller(self, ring, 0, 0, f.net.client(nil))
		replicator := cluster.NewReplicator(self, ring, 0, 0, f.net.client(nil))
		cfg := server.Config{Store: st, Logf: logf, PeerFill: filler.Fill, Replicate: replicator.Replicate}
		if traced {
			cfg.PeerFill = func(ctx context.Context, key string) ([]byte, bool) {
				end := f.tracer().begin("peerfill", reqOf(ctx))
				data, ok := filler.Fill(ctx, key)
				end()
				if ok {
					f.peerFillHits.Add(1)
				}
				return data, ok
			}
			cfg.Replicate = func(ctx context.Context, key string, data []byte) (int, int) {
				end := f.tracer().begin("replicate", 0)
				pushed, failed := replicator.Replicate(ctx, key, data)
				end()
				f.replicaPushed.Add(int64(pushed))
				return pushed, failed
			}
		}
		srv, err := server.New(cfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		handler := cluster.WorkerMux(srv.Handler(), ring, logf)
		if traced {
			handler = f.spanHandler("handler.w"+strconv.Itoa(i), handler)
		}
		if err := f.listen(self, handler); err != nil {
			f.stop()
			return nil, err
		}
	}
	var wrap func(http.RoundTripper) http.RoundTripper
	if traced {
		wrap = func(base http.RoundTripper) http.RoundTripper { return &forwardSpans{f: f, base: base} }
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Peers:  peers,
		Client: f.net.client(wrap),
		Logf:   logf,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	var handler http.Handler = coord.Handler()
	if traced {
		handler = f.spanHandler("coord", handler)
	}
	if err := f.listen(coordURL, handler); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) listen(url string, h http.Handler) error {
	srv, bound, _, err := server.StartHTTP("127.0.0.1:0", h)
	if err != nil {
		return err
	}
	f.https = append(f.https, srv)
	f.net.add(url, bound)
	return nil
}

// stop shuts the fleet down: HTTP front ends first so no new work
// arrives, then each worker's queue and replica pushes drain.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.coord != nil {
		f.coord.Close()
	}
	for _, srv := range f.servers {
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: worker shutdown:", err)
		}
	}
	for _, h := range f.https {
		if err := h.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
		}
	}
	f.net.closeIdle()
}

// spanHandler records a span around every submission the handler
// serves and passes the request's benchmark ID on in its context.
func (f *fleet) spanHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := f.tracer()
		if t == nil || r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		end := t.begin(name, req)
		h.ServeHTTP(w, r.WithContext(withReq(r.Context(), req)))
		end()
	})
}

// forwardSpans wraps the coordinator's client: each forwarded
// submission becomes a "forward" span, ended when the coordinator has
// read the whole worker response, and carries the request's benchmark
// ID on to the worker.
type forwardSpans struct {
	f    *fleet
	base http.RoundTripper
}

func (fs *forwardSpans) RoundTrip(r *http.Request) (*http.Response, error) {
	t := fs.f.tracer()
	req := reqOf(r.Context())
	if t == nil || req == 0 {
		return fs.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	end := t.begin("forward", req)
	resp, err := fs.base.RoundTrip(r)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// load is the pre-drawn request sequence of one run.
type load struct {
	bodies  [][]byte // spec bodies: hot specs first, then misses
	seeds   []uint64 // each body's spec seed
	draws   []int    // body index of each request, in order
	tenants []int    // tenant of each request
}

func isHot(spec int) bool { return spec < hotSpecs }

// drawLoad draws n requests from seed: 95% from a Zipf hot set of
// hotSpecs specs that set-up pre-warms, the rest never-seen specs.
func drawLoad(seed uint64, n int) (*load, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	hotZipf := rand.NewZipf(rng, zipfS, 1, hotSpecs-1)
	tenantZipf := rand.NewZipf(rng, zipfS, 1, tenants-1)
	l := &load{}
	addSpec := func(specSeed uint64) error {
		b, err := json.Marshal(server.RunSpec{Scheme: fleetScheme, Mixes: []string{fleetMix}, Budget: fleetBudget, Seed: specSeed})
		l.bodies = append(l.bodies, b)
		l.seeds = append(l.seeds, specSeed)
		return err
	}
	base := seed*1_000_003 + 1
	for i := 0; i < hotSpecs; i++ {
		if err := addSpec(base + uint64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		spec := int(hotZipf.Uint64())
		if (i+1)%missEvery == 0 {
			spec = len(l.bodies)
			if err := addSpec(base + 100_000 + uint64(spec)); err != nil {
				return nil, err
			}
		}
		l.draws = append(l.draws, spec)
		l.tenants = append(l.tenants, int(tenantZipf.Uint64()))
	}
	return l, nil
}

// response is one answered request.
type response struct {
	done    bool // answered (the run's window may end first)
	spec    int
	class   string // "hit" or "miss", from the response's cache field
	lat     time.Duration
	end     time.Duration // completion, since the window started
	id      string        // the worker's job ID; misses only
	result  []byte        // kept only for hot specs' first answer and sampled misses
	kinst   float64       // simulated kilo-instructions a miss's result reports
	failure string
}

// submit posts spec's body through the coordinator as tenant and waits
// for the answer. A traced request carries its benchmark ID reqID.
func submit(c *http.Client, l *load, spec, tenant int, reqID uint64) response {
	resp := response{spec: spec}
	req, err := http.NewRequest(http.MethodPost, coordURL+"/v1/runs?wait=1", bytes.NewReader(l.bodies[spec]))
	if err != nil {
		resp.failure = err.Error()
		return resp
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", fmt.Sprintf("t%d", tenant))
	if reqID != 0 {
		req.Header.Set(reqHeader, strconv.FormatUint(reqID, 10))
	}
	start := time.Now()
	hr, err := c.Do(req)
	if err != nil {
		resp.failure = err.Error()
		return resp
	}
	body, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	resp.lat = time.Since(start)
	if err != nil {
		resp.failure = err.Error()
		return resp
	}
	var env struct {
		ID     string          `json:"id"`
		Status string          `json:"status"`
		Cache  string          `json:"cache"`
		Result json.RawMessage `json:"result"`
	}
	switch {
	case hr.StatusCode != http.StatusOK:
		resp.failure = fmt.Sprintf("HTTP %d: %s", hr.StatusCode, bytes.TrimSpace(body))
	case json.Unmarshal(body, &env) != nil:
		resp.failure = "undecodable response"
	case env.Status != string(server.StatusDone) || len(env.Result) == 0:
		resp.failure = "status " + env.Status
	case env.Cache != "hit" && env.Cache != "miss":
		resp.failure = "cache field " + env.Cache
	}
	resp.class, resp.id, resp.result = env.Cache, env.ID, env.Result
	return resp
}

// drive runs the closed loop: fleetClients clients each take the next
// pre-drawn request and send it once the previous one has answered,
// until the window ends or the sequence is used up.
func drive(c *http.Client, l *load, ck *checker, from int, window time.Duration, traced bool) ([]response, int) {
	out := make([]response, len(l.draws))
	var next atomic.Int64
	next.Store(int64(from))
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < fleetClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(l.draws) || time.Since(start) >= window {
					return
				}
				var reqID uint64
				if traced {
					reqID = uint64(i + 1)
				}
				r := submit(c, l, l.draws[i], l.tenants[i], reqID)
				r.done = true
				r.end = time.Since(start)
				ck.observe(&r)
				out[i] = r
			}
		}()
	}
	wg.Wait()
	last := int(next.Load())
	if last > len(l.draws) {
		last = len(l.draws)
	}
	return out[from:last], last
}

// checker is the fleet's correctness gate. It keeps the first result
// seen for each hot spec, which every later response must equal byte
// for byte, and counts failed requests.
type checker struct {
	mu      sync.Mutex
	results map[int][]byte
	failed  int
}

// observe checks one answered request as it arrives and drops the
// result bytes the rest of the run does not need, so a run's memory
// does not grow with its request count.
func (ck *checker) observe(r *response) {
	if r.failure == "" && isHot(r.spec) {
		ck.mu.Lock()
		if prev, ok := ck.results[r.spec]; !ok {
			ck.results[r.spec] = r.result
		} else if !bytes.Equal(prev, r.result) {
			r.failure = "result differs from an earlier response for the same spec"
		}
		ck.mu.Unlock()
	}
	if r.failure == "" && r.class == "miss" {
		var err error
		if r.kinst, err = committedKinst(r.result); err != nil {
			r.failure = "undecodable result: " + err.Error()
		}
	}
	if r.failure != "" {
		ck.mu.Lock()
		ck.failed++
		ck.mu.Unlock()
		fmt.Fprintf(os.Stderr, "perfbench: fleet-zipf spec %d: %s\n", r.spec, r.failure)
	}
	if isHot(r.spec) || r.spec%verifyEvery != 0 {
		r.result = nil
	}
}

// reference recomputes a spec's result in process, as a worker does,
// and returns it compacted.
func reference(specSeed uint64) ([]byte, error) {
	scheme, err := experiments.SchemeByName(fleetScheme, 0)
	if err != nil {
		return nil, err
	}
	mix, err := tlrob.MixByName(fleetMix)
	if err != nil {
		return nil, err
	}
	r := experiments.NewRunner(experiments.Params{Budget: fleetBudget, Seed: specSeed, Telemetry: true})
	series, err := r.RunMixes(context.Background(), scheme, []workload.Mix{mix})
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(report.FromSeries(series, true))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = json.Compact(&buf, data)
	return buf.Bytes(), err
}

// verifyMisses compares the sampled misses (spec index a multiple of
// verifyEvery) with their in-process reference and returns how many
// differ.
func verifyMisses(l *load, rs []response) (checked, failed int) {
	for _, r := range rs {
		if !r.done || r.failure != "" || r.class != "miss" || r.result == nil {
			continue
		}
		checked++
		want, err := reference(l.seeds[r.spec])
		var got bytes.Buffer
		if err == nil {
			err = json.Compact(&got, r.result)
		}
		if err != nil || !bytes.Equal(got.Bytes(), want) {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: fleet-zipf spec seed %d: result differs from the in-process run (err %v)\n", l.seeds[r.spec], err)
		}
	}
	return checked, failed
}

// committedKinst is the simulated kilo-instructions a result reports.
func committedKinst(result []byte) (float64, error) {
	var s report.Series
	if err := json.Unmarshal(result, &s); err != nil {
		return 0, err
	}
	var n uint64
	for _, row := range s.Rows {
		for _, th := range row.Threads {
			n += th.Committed
		}
	}
	return float64(n) / 1000, nil
}

// warm submits every hot spec once, one at a time, and waits until each
// result has reached its replica, so the timed window starts from the
// same cache state every run.
func (f *fleet) warm(c *http.Client, l *load, ck *checker) error {
	for spec := 0; spec < hotSpecs; spec++ {
		r := submit(c, l, spec, 0, 0)
		if r.failure != "" {
			return fmt.Errorf("warm-up spec %d: %s", spec, r.failure)
		}
		ck.results[spec] = r.result
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var stored uint64
		for _, srv := range f.servers {
			stored += srv.Stats().PeerStored
		}
		if stored >= hotSpecs*(fleetWorkers-1) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d replica pushes landed", stored, hotSpecs*(fleetWorkers-1))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// memBudget sizes each worker's memory cache to half the hot set's
// result bytes, so hits come from both the memory and the disk tier.
func memBudget(l *load) (int64, error) {
	one, err := reference(l.seeds[0])
	if err != nil {
		return 0, err
	}
	return int64(len(one)) * hotSpecs / 2, nil
}

// fleetRun holds what one fleet-zipf run needs across its phases.
type fleetRun struct {
	f      *fleet
	client *http.Client
	load   *load
	ck     *checker
}

// setupFleet boots a warmed fleet setupRepeats times, keeping the last,
// and returns the set-up times.
func setupFleet(root string, seed uint64, window time.Duration, traced bool) (*fleetRun, []float64, error) {
	// Draw more requests than the fleet can serve in the window.
	l, err := drawLoad(seed, 4000*int(window/time.Second+1))
	if err != nil {
		return nil, nil, err
	}
	mem, err := memBudget(l)
	if err != nil {
		return nil, nil, err
	}
	var run *fleetRun
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		if run != nil {
			run.f.stop()
		}
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		t := time.Now()
		f, err := startFleet(dir, mem, traced)
		if err != nil {
			return nil, nil, err
		}
		run = &fleetRun{f: f, client: f.net.client(nil), load: l, ck: &checker{results: map[int][]byte{}}}
		if err := f.warm(run.client, l, run.ck); err != nil {
			f.stop()
			return nil, nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	return run, setup, nil
}

// windowFigures are the end-to-end figures of one timed window. A tail
// with fewer than minTailSamples samples beyond it reads 0.
type windowFigures struct {
	rps, hitP50, kips        float64
	hitP99, missP50, missP90 float64
	hits, misses, completed  int
	roundRPS                 []float64
}

func figures(rs []response, window time.Duration) (windowFigures, error) {
	var w windowFigures
	var classes []string
	var latMs, missKips []float64
	const rounds = 5
	perRound := make([]int, rounds)
	for _, r := range rs {
		if !r.done || r.failure != "" {
			continue
		}
		w.completed++
		if k := int(r.end * rounds / window); k < rounds {
			perRound[k]++
		}
		classes, latMs = append(classes, r.class), append(latMs, ms(r.lat))
		if r.class == "miss" {
			missKips = append(missKips, r.kinst/r.lat.Seconds())
		}
	}
	byClass := classSplit(classes, latMs)
	hitMs, missMs := byClass["hit"], byClass["miss"]
	if len(hitMs) == 0 || len(missMs) == 0 {
		return w, errors.New("the window completed no hits or no misses")
	}
	for _, n := range perRound {
		w.roundRPS = append(w.roundRPS, float64(n)*rounds/window.Seconds())
	}
	w.hits, w.misses = len(hitMs), len(missMs)
	w.rps = float64(w.completed) / window.Seconds()
	w.hitP50 = median(hitMs)
	w.kips = median(missKips)
	w.missP50 = median(missMs)
	if p, ok := tail(hitMs, 0.99); ok {
		w.hitP99 = p
	}
	if p, ok := tail(missMs, 0.90); ok {
		w.missP90 = p
	}
	return w, nil
}

func runFleet(seed uint64, window time.Duration, traced bool) (outcome, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return outcome{}, err
	}
	root, err := os.MkdirTemp(root, "fleet-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(root)
	run, setup, err := setupFleet(root, seed, window, traced)
	if err != nil {
		return outcome{}, err
	}
	defer run.f.stop()
	out := outcome{metrics: map[string]float64{}, diag: map[string]float64{}}
	cpu0 := readCPUTimes()
	phase := window
	if traced {
		phase = window / 2
	}
	gc := startGC()
	rs, next := drive(run.client, run.load, run.ck, 0, phase, false)
	out.diag["runtime.gc_cycles"], _ = gc.stop()
	w, err := figures(rs, phase)
	if err != nil {
		return outcome{}, err
	}
	if traced {
		tm, trs, err := run.tracedPhase(next, window-phase)
		if err != nil {
			return outcome{}, err
		}
		for k, v := range tm {
			out.metrics[k] = v
		}
		out.metrics["trace.overhead_ratio"] = w.rps / tm["trace.rps"]
		rs = append(rs, trs...)
	}
	attempted := 0
	for _, r := range rs {
		if r.done {
			attempted++
		}
	}
	checked, bad := verifyMisses(run.load, rs)
	out.metrics["sim_kips"] = w.kips
	out.metrics["rps"] = w.rps
	out.metrics["p50_ms"] = w.hitP50
	out.metrics["setup_s"] = median(setup)
	out.metrics["host.steal_share"] = stealShare(cpu0, readCPUTimes())
	out.diag["host.steal_share"] = out.metrics["host.steal_share"]
	out.diag["hits"], out.diag["misses"] = float64(w.hits), float64(w.misses)
	out.diag["hit_p99_ms"], out.diag["miss_p50_ms"], out.diag["miss_p90_ms"] = w.hitP99, w.missP50, w.missP90
	out.diag["spread.round_rps"] = spread(w.roundRPS)
	out.diag["spread.setup_s"] = spread(setup)
	out.diag["verified_misses"] = float64(checked)
	out.diag["hedges_fired"] = float64(run.f.coord.Stats().HedgesFired)
	out.attempted = attempted + checked
	out.failed = run.ck.failed + bad
	return out, nil
}

// tracedPhase drives the fleet with span recording on and returns the
// per-layer metrics and the phase's responses.
func (run *fleetRun) tracedPhase(from int, window time.Duration) (map[string]float64, []response, error) {
	f := run.f
	m := map[string]float64{}
	before := make([]server.Stats, len(f.servers))
	for i, srv := range f.servers {
		before[i] = srv.Stats()
	}
	coordBefore := f.coord.Stats()
	dials0 := f.net.dials.Load()
	fills0, pushed0 := f.peerFillHits.Load(), f.replicaPushed.Load()
	tr := newTracer()
	f.tr.Store(tr)
	gc := startGC()
	rs, _ := drive(run.client, run.load, run.ck, from, window, true)
	m["runtime.gc_cycles"], m["runtime.alloc_mb"] = gc.stop()
	f.tr.Store(nil)
	w, err := figures(rs, window)
	if err != nil {
		return nil, nil, err
	}
	m["trace.rps"] = w.rps
	m["fleet.hit_p99_ms"], m["fleet.miss_p50_ms"], m["fleet.miss_p90_ms"] = w.hitP99, w.missP50, w.missP90

	// Counters over the phase.
	var memHits, diskHits, sims uint64
	for i, srv := range f.servers {
		st := srv.Stats()
		memHits += st.Cache.Hits - before[i].Cache.Hits
		diskHits += st.Cache.DiskHits - before[i].Cache.DiskHits
		n := st.Simulations - before[i].Simulations
		sims += n
		m[fmt.Sprintf("server.simulations.w%d", i)] = float64(n)
	}
	m["store.mem_hits"], m["store.disk_hits"], m["server.simulations"] = float64(memHits), float64(diskHits), float64(sims)
	m["cluster.hedges_fired"] = float64(f.coord.Stats().HedgesFired - coordBefore.HedgesFired)
	m["cluster.dials"] = float64(f.net.dials.Load() - dials0)
	m["cluster.peer_fill_hits"] = float64(f.peerFillHits.Load() - fills0)
	m["cluster.replica_pushed"] = float64(f.replicaPushed.Load() - pushed0)

	// Spans, joined to each request's class by its benchmark ID.
	class := map[uint64]string{}
	for i, r := range rs {
		if r.done && r.failure == "" {
			class[uint64(from+i+1)] = r.class
		}
	}
	forwards := map[uint64][]span{}
	var fwdHit []float64
	for _, s := range tr.byName("forward") {
		forwards[s.req] = append(forwards[s.req], s)
		if class[s.req] == "hit" {
			fwdHit = append(fwdHit, ms(s.dur()))
		}
	}
	var coordSelf []float64
	for _, s := range tr.byName("coord") {
		if class[s.req] == "hit" {
			coordSelf = append(coordSelf, ms(selfTime(s, forwards[s.req])))
		}
	}
	handler := map[string][]float64{}
	for i := range f.servers {
		for _, s := range tr.byName("handler.w" + strconv.Itoa(i)) {
			if c := class[s.req]; c != "" {
				handler[c] = append(handler[c], ms(s.dur()))
			}
		}
	}
	m["cluster.coord_self_ms.hit"] = median(coordSelf)
	m["cluster.forward_ms"] = median(fwdHit)
	m["server.handler_ms.hit"] = median(handler["hit"])
	m["server.handler_ms.miss"] = median(handler["miss"])
	m["cluster.peer_fill_ms"] = median(durationsMs(tr.byName("peerfill")))
	m["cluster.replicate_ms"] = median(durationsMs(tr.byName("replicate")))

	// Worker queue wait and simulation time, from the jobs' timestamps.
	var queueMs, simMs []float64
	for _, r := range rs {
		if !r.done || r.failure != "" || r.class != "miss" {
			continue
		}
		for _, srv := range f.servers {
			j, ok := srv.Job(r.id)
			if !ok {
				continue
			}
			if snap := j.Snapshot(); snap.StartedAt != nil && snap.EndedAt != nil {
				queueMs = append(queueMs, ms(snap.StartedAt.Sub(snap.CreatedAt)))
				simMs = append(simMs, ms(snap.EndedAt.Sub(*snap.StartedAt)))
			}
			break
		}
	}
	m["server.queue_wait_ms"] = median(queueMs)
	m["server.sim_ms"] = median(simMs)

	getUs, putUs, err := run.storeProbe()
	if err != nil {
		return nil, nil, err
	}
	m["store.get_disk_us"], m["store.put_us"] = getUs, putUs
	if err := fleetProbes(m, run.load.seeds[0]); err != nil {
		return nil, nil, err
	}
	return m, rs, nil
}

// storeProbe times store.Get from disk, on a memory-less store over
// each worker's cache directory, and store.Put of the hot results into
// a fresh store with the workers' memory budget.
func (run *fleetRun) storeProbe() (getUs, putUs float64, err error) {
	var gets, puts []float64
	for _, dir := range run.f.dirs {
		st, err := store.New(dir, 0)
		if err != nil {
			return 0, 0, err
		}
		for _, key := range st.Keys() {
			t := time.Now()
			if _, ok := st.Get(key); !ok {
				return 0, 0, fmt.Errorf("store probe: %s unreadable", key)
			}
			gets = append(gets, float64(time.Since(t))/float64(time.Microsecond))
		}
	}
	probe, err := store.New(filepath.Join(filepath.Dir(run.f.dirs[0]), "probe"), 64<<20)
	if err != nil {
		return 0, 0, err
	}
	for spec, data := range run.ck.results {
		if !isHot(spec) {
			continue
		}
		key, err := server.SpecKey(server.RunSpec{Scheme: fleetScheme, Mixes: []string{fleetMix}, Budget: fleetBudget, Seed: run.load.seeds[spec]}, 0)
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		if err := probe.Put(key, data); err != nil {
			return 0, 0, err
		}
		puts = append(puts, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(gets), median(puts), nil
}

// fleetProbes times, standalone, the simulator calls each miss makes:
// the single-thread references, the machine build and trace generation.
func fleetProbes(m map[string]float64, specSeed uint64) error {
	mix, err := tlrob.MixByName(fleetMix)
	if err != nil {
		return err
	}
	scheme, err := experiments.SchemeByName(fleetScheme, 0)
	if err != nil {
		return err
	}
	var singles, newUs []float64
	for i := uint64(0); i < 5; i++ {
		t := time.Now()
		if _, err := tlrob.SingleIPCs(mix.Benchmarks[:], tlrob.Options{Budget: fleetBudget, Seed: specSeed + i}); err != nil {
			return err
		}
		singles = append(singles, time.Since(t).Seconds())
	}
	opt := scheme.Opt
	opt.Budget, opt.Seed = fleetBudget, specSeed
	for i := 0; i < 20; i++ {
		sources := make([]pipeline.TraceSource, len(mix.Benchmarks))
		for k, b := range mix.Benchmarks {
			prof, _ := workload.ProfileFor(b)
			sources[k] = workload.MustNewGenerator(prof, specSeed*16+uint64(k)+1)
		}
		t := time.Now()
		if _, err := pipeline.New(machineConfig(opt, len(sources), false), sources); err != nil {
			return err
		}
		newUs = append(newUs, float64(time.Since(t))/float64(time.Microsecond))
	}
	m["tlrob.singles_s"] = median(singles)
	m["pipeline.new_us"] = median(newUs)
	m["workload.gen_ns_per_inst"] = genNsPerInst(mix.Benchmarks[:], specSeed)
	return nil
}
