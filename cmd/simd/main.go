// Command simd is the simulation-as-a-service daemon: an HTTP front end
// over internal/server's job queue, worker pool and content-addressed
// result cache. Runs are deterministic (fixed seed + config → identical
// metrics), so identical requests are served from the cache or coalesced
// onto one in-flight simulation.
//
//	simd -addr :8080 -cache-dir results/cache
//
//	# submit and wait
//	curl -s -X POST 'localhost:8080/v1/runs?wait=1' \
//	     -d '{"scheme":"rrob","mixes":["Mix 1"],"budget":50000}'
//
// Passing -addr :0 binds a free port; the concrete address is printed
// on stdout ("simd listening on host:port") so scripts and tests can
// scrape it.
//
// -replicas is the fleet's replication factor R (default 2) on both
// roles: each result lives on its key's first R ring owners.
//
// With -peers the node joins a fleet: a local cache miss first asks the
// key's ring owners over GET /v1/cache/{key} before simulating, and a
// completed simulation is replicated to the key's other ring owners
// (R copies in all) so one node death loses no result. The
// coordinator pushes membership updates to POST /v1/members, so the
// worker's ring follows the fleet as it grows and shrinks. After each
// update the worker repairs placement: every key it holds whose first R
// owners changed is pushed to the owners it gained.
//
// Every worker names its job IDs after its -self-url (default
// http://<bound addr>), so any coordinator over the fleet can route
// GET/DELETE /v1/runs/{id} and its event stream to the owning node.
//
// With -coordinator the process serves no simulations itself; it routes
// each submission to its shard owner over a consistent-hash ring of
// -peers, hedges stragglers onto the next owner, reroutes 429/503 to
// the key's other owners (R+1 nodes in all: the R that can hold the
// result plus one that can simulate it), enforces per-tenant quotas,
// and aggregates fleet state at /v1/fleet. Membership is dynamic:
// POST /v1/members adds or removes workers at runtime, and SIGHUP
// re-reads -peer-file; either path pushes the new member list to every
// worker that was or is a member, and the workers move cached results
// onto the first R owners of the new ring. A worker the prober sees
// come back is sent the current list too.
//
// SIGINT/SIGTERM drains gracefully: submissions get 503, queued and
// running jobs finish (up to -drain-timeout), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (\":0\" picks a free port, printed on stdout)")
		cacheDir     = flag.String("cache-dir", "results/cache", "on-disk result cache root")
		cacheMem     = flag.Int64("cache-mem", 64<<20, "in-memory cache byte budget")
		queueSize    = flag.Int("queue", 64, "job queue capacity (full = HTTP 429)")
		workers      = flag.Int("workers", 2, "concurrent jobs")
		simWorkers   = flag.Int("sim-workers", 0, "goroutines per job's sweep (0 = all cores)")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "per-job deadline")
		maxBudget    = flag.Uint64("max-budget", 5_000_000, "largest accepted per-thread instruction budget")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain limit on shutdown")

		peers       = flag.String("peers", "", "comma-separated fleet base URLs (workers: peer cache fill + replication; coordinator: the ring)")
		peerFile    = flag.String("peer-file", "", "coordinator: file of fleet base URLs (one per line); SIGHUP re-reads it and rebalances")
		selfURL     = flag.String("self-url", "", "this worker's advertised base URL, spelled as in the coordinator's member list; names its job IDs and its place in -peers (default http://<bound addr>)")
		coordinator = flag.Bool("coordinator", false, "run as the fleet coordinator instead of a worker")
		vnodes      = flag.Int("vnodes", 64, "virtual nodes per ring member")
		replicas    = flag.Int("replicas", 2, "replication factor R: each result lives on its key's first R ring owners; a coordinator tries R+1 owners per submission")
		hedgeMin    = flag.Duration("hedge-min", 100*time.Millisecond, "hedge delay floor (also the cold-start delay)")
		hedgeMax    = flag.Duration("hedge-max", 5*time.Second, "hedge delay ceiling")
		quotaRate   = flag.Float64("quota-rate", 0, "per-tenant submissions/sec (0 disables quotas)")
		quotaBurst  = flag.Float64("quota-burst", 0, "per-tenant burst (default 2x rate)")
		maxInflight = flag.Int("max-inflight", 128, "concurrent forwards; excess waits in fair order across tenants")
	)
	flag.Parse()
	log.SetPrefix("simd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	peerList := splitPeers(*peers)
	if *coordinator {
		if len(peerList) == 0 && *peerFile != "" {
			var err error
			if peerList, err = readPeerFile(*peerFile); err != nil {
				fatal(err)
			}
		}
		runCoordinator(*addr, peerList, *peerFile, cluster.CoordinatorConfig{
			Peers:         peerList,
			VNodes:        *vnodes,
			Replicas:      *replicas,
			HedgeAfterMin: *hedgeMin,
			HedgeAfterMax: *hedgeMax,
			QuotaRate:     *quotaRate,
			QuotaBurst:    *quotaBurst,
			MaxInflight:   *maxInflight,
			MaxBudget:     *maxBudget,
			Logf:          log.Printf,
		}, *drainTimeout)
		return
	}

	st, err := store.New(*cacheDir, *cacheMem)
	if err != nil {
		fatal(err)
	}
	// Bind first: the self URL names this worker's job IDs and lets peer
	// fill and replication skip this node, so it is needed before the
	// server is built.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	self := *selfURL
	if self == "" {
		self = "http://" + bound
	}
	// A coordinator routes a job by matching its ID's tag against the
	// member list, so a self URL spelled differently there strands every
	// async job this worker mints.
	if len(peerList) > 0 && !slices.Contains(peerList, self) {
		fatal(fmt.Errorf("self URL %s is not in -peers; set -self-url to this worker's entry there", self))
	}
	if host, _, _ := net.SplitHostPort(bound); *selfURL == "" && net.ParseIP(host).IsUnspecified() {
		log.Printf("warning: job IDs are named after %s, which no coordinator member list spells; set -self-url to route them through a coordinator", self)
	}
	cfg := server.Config{
		Store:      st,
		QueueSize:  *queueSize,
		Workers:    *workers,
		SimWorkers: *simWorkers,
		JobTimeout: *jobTimeout,
		MaxBudget:  *maxBudget,
		Logf:       log.Printf,
		SelfURL:    self,
	}
	var (
		ring       *cluster.Ring
		replicator *cluster.Replicator
	)
	if len(peerList) > 0 {
		if ring, err = cluster.NewRing(peerList, *vnodes); err != nil {
			fatal(err)
		}
		replicator = cluster.NewReplicator(self, ring, *replicas, 0, nil)
		cfg.PeerFill = cluster.NewPeerFiller(self, ring, 0, 0, nil).Fill
		cfg.Replicate = replicator.Replicate
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	if ring != nil {
		ring.OnChange(func(before []string) {
			srv.Rereplicate(func(ctx context.Context) (int, int) { return replicator.Repair(ctx, before, st) })
		})
	}

	handler := srv.Handler()
	if ring != nil {
		// The coordinator pushes membership changes here; fills and
		// replica writes follow the updated ring immediately.
		handler = cluster.WorkerMux(handler, ring, log.Printf)
	}
	httpSrv, errCh := server.Serve(ln, handler)
	fmt.Printf("simd listening on %s\n", bound)
	log.Printf("listening on %s (cache %s, queue %d, %d workers)", bound, *cacheDir, *queueSize, *workers)
	if ring != nil {
		log.Printf("fleet member %s (%d peers, peer cache fill + replication on)", self, len(peerList))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		fatal(err)
	}
	stop()

	log.Printf("draining (limit %s)...", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete, in-flight jobs cancelled: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}

func runCoordinator(addr string, peers []string, peerFile string, cfg cluster.CoordinatorConfig, drainTimeout time.Duration) {
	if len(peers) == 0 {
		fatal(fmt.Errorf("-coordinator requires -peers or -peer-file"))
	}
	c, err := cluster.NewCoordinator(cfg)
	if err != nil {
		fatal(err)
	}
	httpSrv, bound, errCh, err := server.StartHTTP(addr, c.Handler())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("simd listening on %s\n", bound)
	nodes, shares := c.Ring().Ownership(4096)
	for i, n := range nodes {
		log.Printf("coordinator: shard %s owns %.1f%% of the keyspace", n, shares[i]*100)
	}
	log.Printf("coordinator listening on %s (%d peers)", bound, len(peers))

	// SIGHUP re-reads -peer-file and applies it as the authoritative
	// member list: workers are synced and repair placement themselves.
	if peerFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				nodes, err := readPeerFile(peerFile)
				if err != nil {
					log.Printf("coordinator: SIGHUP reload: %v", err)
					continue
				}
				reply, err := c.ApplyMemberChange(cluster.MemberChange{Action: "set", Nodes: nodes})
				if err != nil {
					log.Printf("coordinator: SIGHUP reload: %v", err)
					continue
				}
				log.Printf("coordinator: SIGHUP reload: +%v -%v (%d members)",
					reply.Added, reply.Removed, len(reply.Members))
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		fatal(err)
	}
	stop()

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	c.Close()
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// readPeerFile parses a peer file: one base URL per line, blank lines
// and #-comments ignored.
func readPeerFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("peer file: %w", err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("peer file %s: no peers", path)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simd:", err)
	os.Exit(1)
}
