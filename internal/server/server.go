// Package server is the simulation-as-a-service job engine behind
// cmd/simd. It wraps experiments.Runner with a bounded job queue
// (backpressure when full), a worker pool, request coalescing
// (concurrent identical submissions share one run), a content-addressed
// result cache (internal/store), per-job deadlines with cancellation,
// and a graceful drain for shutdown. Sweeps are seed-deterministic, so a
// failed run is not retried: it would fail the same way again.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Submission errors, mapped to HTTP statuses by the handlers.
var (
	ErrBadSpec   = errors.New("invalid run spec")
	ErrQueueFull = errors.New("queue full")
	ErrDraining  = errors.New("server draining")
)

// RunSpec is the wire form of a simulation request.
type RunSpec struct {
	// Scheme names the machine configuration: "baseline32",
	// "baseline128", "rrob", "relaxed-rrob", "cdr-rrob", "prob" or
	// "shared128".
	Scheme string `json:"scheme"`
	// Threshold overrides the scheme's default DoD threshold
	// (rrob: 16, relaxed/cdr: 15, prob: 5).
	Threshold int `json:"threshold,omitempty"`
	// Mixes selects Table-2 mixes by name; empty means all eleven.
	Mixes []string `json:"mixes,omitempty"`
	// Budget is the per-thread instruction budget (default 200k).
	Budget uint64 `json:"budget,omitempty"`
	// Seed is the workload seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutSec caps the job's run time (default Config.JobTimeout).
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// keySpec is the content-address material: the fully resolved
// configuration, so "rrob" and "rrob"+threshold 16 address the same
// result.
type keySpec struct {
	Options tlrob.Options `json:"options"`
	Mixes   []string      `json:"mixes"`
	Budget  uint64        `json:"budget"`
	Seed    uint64        `json:"seed"`
}

// resolveScheme maps a spec's scheme name to an experiments SchemeSpec.
// An empty name means the baseline machine; everything else is the
// shared experiments.SchemeByName table.
func resolveScheme(name string, threshold int) (experiments.SchemeSpec, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return experiments.Baseline32(), nil
	}
	return experiments.SchemeByName(name, threshold)
}

// normalize validates the spec, fills defaults and resolves the scheme
// and mix list.
func (sp RunSpec) normalize(cfg Config) (RunSpec, experiments.SchemeSpec, []workload.Mix, error) {
	scheme, err := resolveScheme(sp.Scheme, sp.Threshold)
	if err != nil {
		return sp, scheme, nil, err
	}
	if sp.Budget == 0 {
		sp.Budget = 200_000
	}
	if sp.Budget > cfg.MaxBudget {
		return sp, scheme, nil, fmt.Errorf("budget %d exceeds the limit %d", sp.Budget, cfg.MaxBudget)
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	var mixes []workload.Mix
	if len(sp.Mixes) == 0 {
		mixes = workload.Mixes
	} else {
		for _, name := range sp.Mixes {
			m, ok := workload.MixByName(name)
			if !ok {
				return sp, scheme, nil, fmt.Errorf("unknown mix %q", name)
			}
			mixes = append(mixes, m)
		}
	}
	return sp, scheme, mixes, nil
}

// Config sizes the server.
type Config struct {
	Store      *store.Store
	QueueSize  int           // bounded queue; full submissions get ErrQueueFull (default 64)
	Workers    int           // concurrent jobs (default 2)
	SimWorkers int           // goroutines per job's sweep (0 = all cores)
	JobTimeout time.Duration // per-job deadline (default 10m)
	MaxBudget  uint64        // largest accepted per-thread budget (default 5M)
	Logf       func(format string, args ...any)

	// SelfURL is this worker's advertised base URL, spelled exactly as
	// the coordinator's member list spells it. When set, job IDs start
	// with NodeTag(SelfURL), so any coordinator can route a job-scoped
	// request from the ID alone; empty keeps untagged IDs.
	SelfURL string

	// PeerFill, when set (cluster mode), is consulted after a local
	// cache miss and before enqueueing a simulation: if a peer node
	// already holds the result for key, it is adopted into the local
	// store and served without re-simulating.
	PeerFill func(ctx context.Context, key string) ([]byte, bool)

	// Replicate, when set (cluster mode), is called asynchronously after
	// every successful simulation with the result bytes, so the other
	// ring owners of key hold a copy before this node can die with the
	// only one. Returns how many pushes landed and how many failed.
	Replicate func(ctx context.Context, key string, data []byte) (pushed, failed int)
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.MaxBudget == 0 {
		c.MaxBudget = 5_000_000
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Stats is the server's observable state, rendered by /metrics.
type Stats struct {
	QueueDepth  int
	Inflight    int64
	Submitted   uint64
	Coalesced   uint64 // submissions that attached to an in-flight identical job
	Rejected    uint64 // queue-full rejections
	Completed   uint64
	Failed      uint64
	Canceled    uint64
	Simulations uint64 // sweeps actually started (singleflight collapses these)
	Cycles      uint64 // simulated cycles, summed over completed jobs
	SimSeconds  float64
	Draining    bool
	Cache       store.Stats

	// Cluster-mode counters: peer cache fills attempted on local
	// misses (hit = adopted from a peer without re-simulating) and
	// cache entries this node served to peers via GET /v1/cache/{key}.
	PeerFillHits   uint64
	PeerFillMisses uint64
	PeerServed     uint64
	// PeerStored counts entries written into the local store by peers
	// via PUT /v1/cache/{key} (replication and placement repair).
	PeerStored uint64
	// ReplicaPushed/ReplicaFailed count this node's own replica writes
	// to other ring owners, after completed simulations and in
	// placement repair passes.
	ReplicaPushed uint64
	ReplicaFailed uint64

	// StallCycles maps telemetry stall-cause names to thread-cycles
	// charged, summed over every sweep this process ran; ActiveCycles is
	// the matching dispatch-active total.
	StallCycles  map[string]uint64
	ActiveCycles uint64
}

// maxJobs bounds the jobs a server keeps for status polls and event
// streams: past it, finished jobs are forgotten oldest first (jobs
// still queued or running are always kept). A poll of a forgotten ID
// that ended done is answered from the store, since the ID carries the
// job's cache key.
const maxJobs = 256

// Server owns the queue, the workers and the job registry.
type Server struct {
	cfg   Config
	queue chan *Job

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job // by job ID, for status lookups
	order    []*Job          // the jobs in jobs, oldest first
	active   map[string]*Job // by cache key, for singleflight
	seq      uint64
	tag      string // NodeTag(cfg.SelfURL), or "" for untagged job IDs

	// Process-lifetime base context (the http.Server.BaseContext
	// pattern); jobs derive from it.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	workersWG  sync.WaitGroup

	inflight                         atomic.Int64
	submitted, coalesced, rejected   atomic.Uint64
	completed, failed, canceled      atomic.Uint64
	simulations, cycles, simNanosSum atomic.Uint64
	// simTimedJobs counts the jobs whose wall time entered simNanosSum —
	// jobs canceled while still queued never run and must not dilute the
	// mean service time that RetryAfterSeconds reports.
	simTimedJobs                             atomic.Uint64
	peerFillHits, peerFillMisses, peerServed atomic.Uint64
	peerStored                               atomic.Uint64
	replicaPushed, replicaFailed             atomic.Uint64
	replicaWG                                sync.WaitGroup

	// Per-cause thread-cycle totals aggregated over every sweep this
	// process ran, indexed by telemetry.Cause; exposed on /metrics.
	stallCycles  [telemetry.NumCauses]atomic.Uint64
	activeCycles atomic.Uint64

	// simulate is swapped by tests to fault-inject failures.
	simulate func(ctx context.Context, j *Job) (report.Series, int64, error)
	// beforeRun, if set (tests), blocks a worker at job start.
	beforeRun func(j *Job)
}

// New starts a server with cfg.Workers workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		queue:      make(chan *Job, cfg.QueueSize),
		jobs:       make(map[string]*Job),
		active:     make(map[string]*Job),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	if cfg.SelfURL != "" {
		s.tag = NodeTag(cfg.SelfURL)
	}
	s.simulate = s.runSweep
	for w := 0; w < cfg.Workers; w++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// SpecKey resolves a spec to its content-address cache key without
// submitting it. maxBudget of 0 applies the default limit. The
// coordinator uses this to shard submissions exactly the way workers
// cache them.
func SpecKey(spec RunSpec, maxBudget uint64) (string, error) {
	cfg := Config{MaxBudget: maxBudget}.withDefaults()
	_, _, _, key, err := resolveKey(spec, cfg)
	return key, err
}

// resolveKey normalizes the spec and derives the content address every
// cache layer (local store, peers, coordinator routing) agrees on.
func resolveKey(spec RunSpec, cfg Config) (RunSpec, experiments.SchemeSpec, []workload.Mix, string, error) {
	spec, scheme, mixes, err := spec.normalize(cfg)
	if err != nil {
		return spec, scheme, mixes, "", fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	key, err := store.Key(newKeySpec(spec, scheme, mixes))
	return spec, scheme, mixes, key, err
}

// newKeySpec assembles the key material of a normalized spec.
func newKeySpec(spec RunSpec, scheme experiments.SchemeSpec, mixes []workload.Mix) keySpec {
	opt := scheme.Opt
	opt.Budget = spec.Budget
	opt.Seed = spec.Seed
	names := make([]string, len(mixes))
	for i, m := range mixes {
		names[i] = m.Name
	}
	return keySpec{Options: opt, Mixes: names, Budget: spec.Budget, Seed: spec.Seed}
}

// Submit resolves the spec, consults the cache (local, then peers when
// configured), coalesces with any identical in-flight job, or enqueues
// a new one. It returns either the cached result bytes (job == nil) or
// a job to watch. ctx bounds only the submission itself (peer-fill
// fetches); the job's own lifetime is governed by its waiters. detach
// marks fire-and-forget submissions whose jobs survive client
// disconnects; attached submissions (wait=1) must pair with
// Job.Release.
func (s *Server) Submit(ctx context.Context, spec RunSpec, detach bool) (*Job, []byte, error) {
	spec, scheme, mixes, key, err := resolveKey(spec, s.cfg)
	if err != nil {
		return nil, nil, err
	}
	s.submitted.Add(1)
	if data, ok := s.cfg.Store.Get(key); ok {
		return nil, data, nil
	}
	if s.cfg.PeerFill != nil {
		if data, ok := s.cfg.PeerFill(ctx, key); ok {
			s.peerFillHits.Add(1)
			if err := s.cfg.Store.Put(key, data); err != nil {
				s.cfg.Logf("simd: peer fill put %s: %v", key[:12], err)
			}
			return nil, data, nil
		}
		s.peerFillMisses.Add(1)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, nil, ErrDraining
	}
	// The peer consult above runs unlocked and can take hundreds of
	// milliseconds; a concurrent identical submission may have enqueued,
	// simulated and unregistered entirely inside that window. Re-check
	// the cache under the lock so the result is adopted instead of
	// re-simulated.
	if data, ok := s.cfg.Store.Get(key); ok {
		s.mu.Unlock()
		return nil, data, nil
	}
	if j := s.active[key]; j != nil {
		if j.ctx.Err() == nil {
			if detach {
				j.detach()
			} else {
				j.addWaiter()
			}
			s.coalesced.Add(1)
			s.mu.Unlock()
			return j, nil, nil
		}
		// The in-flight job was already cancelled; don't attach new
		// submitters to a doomed run.
		delete(s.active, key)
	}
	s.seq++
	id := jobID(s.tag, key, s.seq)
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	j := &Job{
		ID:        id,
		Key:       key,
		Spec:      spec,
		scheme:    scheme,
		mixes:     mixes,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		subs:      make(map[chan Event]bool),
		status:    StatusQueued,
		detached:  detach,
		createdAt: time.Now(),
	}
	if !detach {
		j.waiters = 1
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel(ErrQueueFull)
		s.rejected.Add(1)
		return nil, nil, ErrQueueFull
	}
	s.jobs[id] = j
	s.order = append(s.order, j)
	s.active[key] = j
	s.mu.Unlock()
	j.emit(Event{Type: "queued", Total: len(mixes)})
	return j, nil, nil
}

// Job returns a submitted job by ID, while the server still keeps it.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Snapshot returns a job's state by ID. A job the server no longer
// keeps is reported done with the stored result if this server minted
// the ID and the store holds its key; its spec and times are gone.
func (s *Server) Snapshot(id string) (Snapshot, bool) {
	if j, ok := s.Job(id); ok {
		return j.Snapshot(), true
	}
	key, seq, ok := parseJobID(s.tag, id)
	s.mu.Lock()
	minted := ok && seq <= s.seq
	s.mu.Unlock()
	if !minted {
		return Snapshot{}, false
	}
	data, ok := s.cfg.Store.Get(key)
	if !ok {
		return Snapshot{}, false
	}
	return Snapshot{ID: id, Status: StatusDone, Result: data}, true
}

// Cancel cancels a queued or running job. It reports whether the job
// exists.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.cancel(context.Canceled)
	return true
}

func (s *Server) worker() {
	defer s.workersWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *Job) {
	defer s.unregister(j)
	if j.ctx.Err() != nil { // cancelled while queued
		j.finish(StatusCanceled, nil, context.Cause(j.ctx).Error())
		s.canceled.Add(1)
		return
	}
	timeout := s.cfg.JobTimeout
	if j.Spec.TimeoutSec > 0 {
		timeout = time.Duration(j.Spec.TimeoutSec) * time.Second
	}
	ctx, cancel := context.WithTimeout(j.ctx, timeout)
	defer cancel()

	s.inflight.Add(1)
	j.setStarted()
	j.emit(Event{Type: "running", Total: len(j.mixes)})
	if s.beforeRun != nil {
		s.beforeRun(j)
	}

	start := time.Now()
	series, cycles, runErr := s.simulate(ctx, j)
	// Not deferred: a waiter woken by finish below must see the job
	// out of Inflight.
	s.inflight.Add(-1)
	s.simNanosSum.Add(uint64(time.Since(start).Nanoseconds()))
	s.simTimedJobs.Add(1)

	switch {
	case runErr == nil:
		data, err := json.Marshal(series)
		if err != nil {
			j.finish(StatusFailed, nil, err.Error())
			s.failed.Add(1)
			return
		}
		if err := s.cfg.Store.Put(j.Key, data); err != nil {
			s.cfg.Logf("simd: cache put %s: %v", j.Key[:12], err)
		}
		if s.cfg.Replicate != nil {
			// Push replicas off the worker goroutine so a slow peer
			// doesn't hold up the queue; waiters get their result now.
			s.replicaWG.Add(1)
			go func(key string, data []byte) {
				defer s.replicaWG.Done()
				pushed, failed := s.cfg.Replicate(s.baseCtx, key, data)
				s.replicaPushed.Add(uint64(pushed))
				s.replicaFailed.Add(uint64(failed))
				if failed > 0 {
					s.cfg.Logf("simd: replicate %s: %d pushed, %d failed", key[:12], pushed, failed)
				}
			}(j.Key, data)
		}
		s.cycles.Add(uint64(cycles))
		s.completed.Add(1)
		j.finish(StatusDone, data, "")
	case errors.Is(runErr, context.Canceled):
		s.canceled.Add(1)
		j.finish(StatusCanceled, nil, cancelReason(j.ctx, runErr))
	default:
		s.failed.Add(1)
		j.finish(StatusFailed, nil, runErr.Error())
	}
}

func cancelReason(ctx context.Context, err error) string {
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause.Error()
	}
	return err.Error()
}

// unregister runs once per job, after it finished: the job stops
// taking submitters, its context leaves the server's base context
// (which would otherwise keep it as a child for the process lifetime),
// and the oldest finished jobs beyond maxJobs are forgotten.
func (s *Server) unregister(j *Job) {
	defer j.cancel(context.Canceled) // after s.active no longer names j
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[j.Key] == j {
		delete(s.active, j.Key)
	}
	if len(s.jobs) <= maxJobs {
		return
	}
	kept := s.order[:0]
	for _, o := range s.order {
		if len(s.jobs) > maxJobs && o.Status().terminal() {
			delete(s.jobs, o.ID)
			continue
		}
		kept = append(kept, o)
	}
	clear(s.order[len(kept):])
	s.order = kept
}

// runSweep executes the job's sweep, streaming per-mix progress into the
// job's event log.
func (s *Server) runSweep(ctx context.Context, j *Job) (report.Series, int64, error) {
	r := experiments.NewRunner(experiments.Params{
		Budget:    j.Spec.Budget,
		Seed:      j.Spec.Seed,
		Workers:   s.cfg.SimWorkers,
		Telemetry: true,
	})
	var completed atomic.Int64
	r.OnProgress = func(p experiments.Progress) {
		ev := Event{Type: p.Stage, Mix: p.Item, Total: p.Total, FairThroughput: p.FairThroughput}
		if p.Stage == "mix" {
			ev.Completed = int(completed.Add(1))
			ev.Telemetry = p.Telemetry
		}
		j.emit(ev)
	}
	s.simulations.Add(1)
	series, err := r.RunMixes(ctx, j.scheme, j.mixes)
	if err != nil {
		return report.Series{}, 0, err
	}
	var cycles int64
	for _, row := range series.Rows {
		cycles += row.Result.Cycles
		if sum := row.Result.Telemetry; sum != nil {
			stalls, active := sum.StallTotals()
			s.activeCycles.Add(active)
			for c, n := range stalls {
				s.stallCycles[c].Add(n)
			}
		}
	}
	return report.FromSeries(series, true), cycles, nil
}

// Rereplicate runs a placement repair pass in the background, on the
// server's base context rather than on the request that triggered it.
// Its pushes count as replica writes, and Shutdown joins it as it joins
// replica pushes. A draining server starts no new pass.
func (s *Server) Rereplicate(pass func(ctx context.Context) (pushed, failed int)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.replicaWG.Add(1)
	go func() {
		defer s.replicaWG.Done()
		pushed, failed := pass(s.baseCtx)
		s.replicaPushed.Add(uint64(pushed))
		s.replicaFailed.Add(uint64(failed))
		s.cfg.Logf("simd: placement repair: %d pushed, %d failed", pushed, failed)
	}()
}

// Shutdown drains the server: submissions are refused, queued and
// running jobs finish. If ctx expires first, in-flight jobs are
// cancelled and Shutdown reports ctx's error after they unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	// The joiner exits when the worker and replica WaitGroups drain;
	// Shutdown joins it via done on both arms below.
	go func() {
		s.workersWG.Wait()
		s.replicaWG.Wait() // in-flight replica pushes finish too
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// RetryAfterSeconds estimates how long a rejected submitter should wait
// for the queue to drain enough to accept it: the observed mean job
// service time times the queue slots ahead of it, divided across the
// worker pool. Clamped to [1, 60] so a cold server (no completions yet)
// still answers something sane and a deeply backed-up one doesn't tell
// clients to disappear for an hour.
func (s *Server) RetryAfterSeconds() int {
	timed := s.simTimedJobs.Load()
	if timed == 0 {
		return 1
	}
	mean := time.Duration(s.simNanosSum.Load() / timed)
	wait := mean * time.Duration(len(s.queue)+1) / time.Duration(s.cfg.Workers)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	stalls := make(map[string]uint64, int(telemetry.NumCauses)-1)
	for c := telemetry.Cause(1); c < telemetry.NumCauses; c++ {
		stalls[c.String()] = s.stallCycles[c].Load()
	}
	return Stats{
		QueueDepth:     len(s.queue),
		Inflight:       s.inflight.Load(),
		Submitted:      s.submitted.Load(),
		Coalesced:      s.coalesced.Load(),
		Rejected:       s.rejected.Load(),
		Completed:      s.completed.Load(),
		Failed:         s.failed.Load(),
		Canceled:       s.canceled.Load(),
		Simulations:    s.simulations.Load(),
		Cycles:         s.cycles.Load(),
		SimSeconds:     float64(s.simNanosSum.Load()) / 1e9,
		Draining:       draining,
		Cache:          s.cfg.Store.Stats(),
		PeerFillHits:   s.peerFillHits.Load(),
		PeerFillMisses: s.peerFillMisses.Load(),
		PeerServed:     s.peerServed.Load(),
		PeerStored:     s.peerStored.Load(),
		ReplicaPushed:  s.replicaPushed.Load(),
		ReplicaFailed:  s.replicaFailed.Load(),
		StallCycles:    stalls,
		ActiveCycles:   s.activeCycles.Load(),
	}
}
