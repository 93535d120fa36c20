// Command simdload drives synthetic load at a simd worker or cluster
// coordinator: -n submissions across -c concurrent clients, with
// tenants and run specs drawn from Zipf distributions so a few hot
// tenants and a few hot specs dominate — the shape that exercises
// per-tenant quotas, weighted-fair queuing and the content-addressed
// cache at once.
//
//	simdload -url http://localhost:8080 -n 2000 -c 64 -tenants 8
//
// It reports p50/p95/p99 latency, throughput, and the cache-hit ratio,
// and with -json writes a report.LoadSummary that cmd/checkbench can
// gate in CI.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/report"
)

func main() {
	var (
		url      = flag.String("url", "http://localhost:8080", "simd worker or coordinator base URL")
		n        = flag.Int("n", 2000, "total submissions")
		conc     = flag.Int("c", 64, "concurrent clients")
		tenants  = flag.Int("tenants", 8, "distinct tenants")
		specs    = flag.Int("specs", 32, "distinct run specs (smaller = hotter cache)")
		zipfS    = flag.Float64("zipf-s", 1.2, "Zipf skew for the tenant and spec draws (>1)")
		budget   = flag.Uint64("budget", 5_000, "per-thread instruction budget of generated specs")
		scheme   = flag.String("scheme", "rrob", "scheme of generated specs")
		seed     = flag.Uint64("seed", 1, "loadgen RNG seed (spec seeds derive from it)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-request timeout")
		jsonPath = flag.String("json", "", "write a report.LoadSummary here (\"-\" = stdout)")
	)
	flag.Parse()

	if *n <= 0 || *conc <= 0 || *tenants <= 0 || *specs <= 0 {
		fmt.Fprintln(os.Stderr, "simdload: -n, -c, -tenants and -specs must be positive")
		os.Exit(2)
	}
	if *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "simdload: -zipf-s must be > 1")
		os.Exit(2)
	}

	// Pre-draw every request's (tenant, spec) pair from one seeded RNG:
	// the workload is identical run-to-run regardless of scheduling.
	rng := rand.New(rand.NewSource(int64(*seed)))
	tenantZipf := rand.NewZipf(rng, *zipfS, 1, uint64(*tenants-1))
	specZipf := rand.NewZipf(rng, *zipfS, 1, uint64(*specs-1))
	type draw struct{ tenant, spec int }
	draws := make([]draw, *n)
	for i := range draws {
		draws[i] = draw{tenant: int(tenantZipf.Uint64()), spec: int(specZipf.Uint64())}
	}

	bodies := make([][]byte, *specs)
	for i := range bodies {
		b, err := json.Marshal(map[string]any{
			"scheme": *scheme,
			"mixes":  []string{"Mix 1"},
			"budget": *budget,
			"seed":   *seed*1_000_003 + uint64(i),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "simdload:", err)
			os.Exit(1)
		}
		bodies[i] = b
	}

	client := &http.Client{Timeout: *timeout}
	type outcome struct {
		latency time.Duration
		status  int
		cache   string
		hedged  bool
		err     bool
	}
	outcomes := make([]outcome, *n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				d := draws[i]
				req, err := http.NewRequest(http.MethodPost, *url+"/v1/runs?wait=1", bytes.NewReader(bodies[d.spec]))
				if err != nil {
					outcomes[i] = outcome{err: true}
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Tenant", fmt.Sprintf("t%d", d.tenant))
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					outcomes[i] = outcome{latency: time.Since(t0), err: true}
					continue
				}
				var env struct {
					Cache string `json:"cache"`
				}
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
				resp.Body.Close()
				_ = json.Unmarshal(body, &env)
				outcomes[i] = outcome{
					latency: time.Since(t0),
					status:  resp.StatusCode,
					cache:   env.Cache,
					hedged:  resp.Header.Get("X-Simd-Hedged") != "",
				}
			}
		}()
	}
	for i := 0; i < *n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	sum := report.LoadSummary{
		Target:         *url,
		Requests:       *n,
		Concurrency:    *conc,
		Tenants:        *tenants,
		DurationSec:    elapsed.Seconds(),
		TenantRequests: make([]int, *tenants),
	}
	var latencies []time.Duration
	var totalLatency time.Duration
	for i, o := range outcomes {
		sum.TenantRequests[draws[i].tenant]++
		switch {
		case o.err:
			sum.Errors++
			continue
		case o.status == http.StatusTooManyRequests:
			sum.Rejected++
		case o.status == http.StatusOK:
			sum.OK++
		default:
			sum.Errors++
		}
		latencies = append(latencies, o.latency)
		totalLatency += o.latency
		if o.status == http.StatusOK {
			if o.cache == "hit" {
				sum.CacheHits++
			} else {
				sum.CacheMiss++
			}
			if o.hedged {
				sum.Hedged++
			}
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	quantile := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(q * float64(len(latencies)-1))
		return ms(latencies[idx])
	}
	sum.P50Ms, sum.P95Ms, sum.P99Ms = quantile(0.50), quantile(0.95), quantile(0.99)
	if len(latencies) > 0 {
		sum.MaxMs = ms(latencies[len(latencies)-1])
		sum.MeanMs = ms(totalLatency / time.Duration(len(latencies)))
	}
	if elapsed > 0 {
		sum.Throughput = float64(*n) / elapsed.Seconds()
	}
	if done := sum.CacheHits + sum.CacheMiss; done > 0 {
		sum.CacheHitRate = float64(sum.CacheHits) / float64(done)
	}

	fmt.Printf("simdload: %d reqs in %.2fs (%.1f rps) against %s\n", *n, elapsed.Seconds(), sum.Throughput, *url)
	fmt.Printf("  ok %d  rejected(429) %d  errors %d  hedged %d\n", sum.OK, sum.Rejected, sum.Errors, sum.Hedged)
	fmt.Printf("  latency ms  p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n", sum.P50Ms, sum.P95Ms, sum.P99Ms, sum.MaxMs)
	fmt.Printf("  cache  %d hits / %d misses (%.1f%% hit rate)\n", sum.CacheHits, sum.CacheMiss, sum.CacheHitRate*100)

	if *jsonPath != "" {
		out, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "simdload:", err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "simdload:", err)
			os.Exit(1)
		}
	}
	if sum.Errors > 0 {
		os.Exit(1)
	}
}
