// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator or the simd fleet, in process, and
// prints as the last line of standard output one JSON object with the
// correctness verdict, the operation counts and the metrics:
//
//	perfbench --workload sim-membound --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around each layer's public functions and reports the
// per-layer metrics instead. Noise diagnostics (host steal share, GC
// cycles, the spread of each metric across the run's rounds) go to
// standard error. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, on every
// workload; BENCHMARK.json carries the same names and units.
var endToEnd = []metricDef{
	{"sim_kips", "kinst/s"},
	{"rps", "1/s"},
	{"p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports.
var perLayer = []metricDef{
	{"workload.gen_ns_per_inst", "ns"},
	{"pipeline.new_us", "us"},
	{"pipeline.run_ns_per_inst", "ns"},
	{"pipeline.run_ns_per_cycle", "ns"},
	{"pipeline.run_ns_per_inst.baseline32", "ns"},
	{"pipeline.run_ns_per_inst.rrob16", "ns"},
	{"pipeline.run_ns_per_inst.cdrrob15", "ns"},
	{"pipeline.run_ns_per_inst.prob5", "ns"},
	{"pipeline.skip_speedup", "x"},
	{"tlrob.singles_s", "s"},
	{"sim.cpi", "cycle/inst"},
	{"sim.committed", "count"},
	{"rob.grants_per_kinst", "1/kinst"},
	{"rob.owned_share", "share"},
	{"cache.l2_miss_per_kinst", "1/kinst"},
	{"cache.mshr_stalls", "count"},
	{"store.mem_hits", "count"},
	{"store.disk_hits", "count"},
	{"store.get_disk_us", "us"},
	{"store.put_us", "us"},
	{"server.handler_ms.hit", "ms"},
	{"server.handler_ms.miss", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.sim_ms", "ms"},
	{"server.simulations", "count"},
	{"server.simulations.w0", "count"},
	{"server.simulations.w1", "count"},
	{"cluster.coord_self_ms.hit", "ms"},
	{"cluster.forward_ms", "ms"},
	{"cluster.dials", "count"},
	{"cluster.hedges_fired", "count"},
	{"cluster.peer_fill_ms", "ms"},
	{"cluster.peer_fill_hits", "count"},
	{"cluster.replicate_ms", "ms"},
	{"cluster.replica_pushed", "count"},
	{"fleet.hit_p99_ms", "ms"},
	{"fleet.miss_p50_ms", "ms"},
	{"fleet.miss_p90_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"host.steal_share", "share"},
	{"trace.overhead_ratio", "x"},
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// diag holds noise diagnostics: steal share, GC cycles and the
	// spread of each metric across the run's rounds.
	diag map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(seed uint64, seconds time.Duration, traced bool) (outcome, error){
	"sim-membound": func(seed uint64, d time.Duration, tr bool) (outcome, error) {
		return runSim("sim-membound", seed, d, tr)
	},
	"sim-busy": func(seed uint64, d time.Duration, tr bool) (outcome, error) {
		return runSim("sim-busy", seed, d, tr)
	},
	"fleet-zipf": runFleet,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-membound, sim-busy or fleet-zipf")
		seed    = flag.Uint64("seed", 1, "seed every input is drawn from")
		seconds = flag.Int("seconds", 15, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
		record  = flag.String("record-golden", "", "recompute the simulator golden values into this file and exit")
	)
	flag.Parse()
	if *record != "" {
		if err := recordGolden(*record); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sim-membound|sim-busy|fleet-zipf, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	out, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *name, err))
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if rss, err := peakRSSMB(); err == nil {
		out.metrics["peak_rss_mb"] = rss
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && *trace == 0 {
			fatal(fmt.Errorf("%s: metric %s was not measured", *name, d.name))
		}
		// A layer the workload leaves idle reports 0.
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	writeDiag(*name, *seed, out.diag)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// writeDiag prints the run's noise diagnostics as one JSON line on
// standard error, keys sorted.
func writeDiag(name string, seed uint64, diag map[string]float64) {
	keys := make([]string, 0, len(diag))
	for k := range diag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfbench diag workload=%s seed=%d", name, seed)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, " %s=%.4g", k, diag[k])
	}
	fmt.Fprintln(os.Stderr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
