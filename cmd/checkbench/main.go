// Command checkbench gates a report.LoadSummary produced by
// cmd/simdload -json: the run must have completed without client
// errors, served every accepted request, and (optionally) clear
// -min-rps / -max-p99 / -min-hit-rate floors, so cluster latency and
// cache effectiveness fail the build instead of silently shipping.
//
//	checkbench -min-rps 50 -max-p99 2000 -min-hit-rate 0.5 load.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/report"
)

func main() {
	minRPS := flag.Float64("min-rps", 0, "minimum accepted throughput (0 = no floor)")
	maxP99 := flag.Float64("max-p99", 0, "maximum accepted p99 latency in ms (0 = no ceiling)")
	minHitRate := flag.Float64("min-hit-rate", 0, "minimum accepted cache-hit rate in [0,1] (0 = no floor)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: checkbench [-min-rps N] [-max-p99 MS] [-min-hit-rate F] <load.json>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	checkLoad(flag.Arg(0), *minRPS, *maxP99, *minHitRate)
}

// checkLoad gates a cmd/simdload summary: structurally sound, no
// client-visible errors, and inside the optional rps/p99/hit-rate
// envelope.
func checkLoad(path string, minRPS, maxP99, minHitRate float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var sum report.LoadSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		fatal("%s: not a load summary: %v", path, err)
	}
	if errs := loadErrors(sum, minRPS, maxP99, minHitRate); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "checkbench: %s: %s\n", path, e)
		}
		os.Exit(1)
	}
	fmt.Printf("checkbench: %s ok (%d reqs, %.1f rps, p99 %.1fms, %.0f%% cache hits)\n",
		path, sum.Requests, sum.Throughput, sum.P99Ms, sum.CacheHitRate*100)
}

// loadErrors is checkLoad's gate: structural soundness plus the
// optional throughput floor, p99 ceiling, and cache-hit-rate floor.
func loadErrors(sum report.LoadSummary, minRPS, maxP99, minHitRate float64) []string {
	var errs []string
	if sum.Requests <= 0 {
		errs = append(errs, "summary records no requests")
	}
	if sum.OK+sum.Rejected+sum.Errors != sum.Requests {
		errs = append(errs, fmt.Sprintf("request accounting is broken: ok %d + rejected %d + errors %d != %d",
			sum.OK, sum.Rejected, sum.Errors, sum.Requests))
	}
	if sum.Errors > 0 {
		errs = append(errs, fmt.Sprintf("%d requests errored", sum.Errors))
	}
	if sum.OK == 0 && sum.Requests > 0 {
		errs = append(errs, "no request succeeded")
	}
	if minRPS > 0 && sum.Throughput < minRPS {
		errs = append(errs, fmt.Sprintf("throughput %.1f rps below the %.1f floor", sum.Throughput, minRPS))
	}
	if maxP99 > 0 && sum.P99Ms > maxP99 {
		errs = append(errs, fmt.Sprintf("p99 %.1fms above the %.1fms ceiling", sum.P99Ms, maxP99))
	}
	if minHitRate > 0 && sum.CacheHitRate < minHitRate {
		errs = append(errs, fmt.Sprintf("cache-hit rate %.0f%% below the %.0f%% floor", sum.CacheHitRate*100, minHitRate*100))
	}
	return errs
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checkbench: "+format+"\n", args...)
	os.Exit(1)
}
