package tlrob

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// fakeSingles supplies unit reference IPCs: fair throughput is not under
// test here and this avoids four extra single-threaded runs per case.
func fakeSingles(mix workload.Mix) map[string]float64 {
	out := make(map[string]float64, len(mix.Benchmarks))
	for _, b := range mix.Benchmarks {
		out[b] = 1
	}
	return out
}

// TestTelemetryInvariantAcrossSchemes checks the stall-accounting
// identity — every thread's active + charged stall cycles equal the
// run's total cycles — on a low-IPC and a high-IPC mix under the four
// headline machines.
func TestTelemetryInvariantAcrossSchemes(t *testing.T) {
	schemes := []struct {
		name string
		opt  Options
	}{
		{"Baseline_32", Options{Scheme: Baseline, L1ROB: 32}},
		{"Baseline_128", Options{Scheme: Baseline, L1ROB: 128}},
		{"R-ROB16", Options{Scheme: Reactive, DoDThreshold: 16}},
		{"P-ROB5", Options{Scheme: Predictive, DoDThreshold: 5}},
	}
	mixes := []workload.Mix{workload.Mixes[0], workload.Mixes[9]} // 4 Low, 4 High
	for _, sc := range schemes {
		for _, mix := range mixes {
			t.Run(sc.name+"/"+mix.Name, func(t *testing.T) {
				opt := sc.opt
				opt.Budget = 10_000
				opt.Seed = 1
				opt.Telemetry = true
				res, err := RunMix(mix, opt, fakeSingles(mix))
				if err != nil {
					t.Fatal(err)
				}
				sum := res.Telemetry
				if sum == nil {
					t.Fatal("Options.Telemetry set but MixResult.Telemetry is nil")
				}
				if sum.Cycles != res.Cycles {
					t.Fatalf("telemetry saw %d cycles, run took %d", sum.Cycles, res.Cycles)
				}
				if err := sum.CheckInvariant(); err != nil {
					t.Fatal(err)
				}
				stalls, active := sum.StallTotals()
				var total uint64
				for _, v := range stalls {
					total += v
				}
				if want := uint64(res.Cycles) * uint64(len(mix.Benchmarks)); total+active != want {
					t.Fatalf("stall %d + active %d thread-cycles, want %d", total, active, want)
				}
				if res.Raw.Telemetry == nil {
					t.Fatal("raw result lost the collector")
				}
			})
		}
	}
}

// TestTelemetryGrantsObserved: on a memory-bound mix the reactive scheme
// must record second-level tenancies, and they must nest inside the run.
func TestTelemetryGrantsObserved(t *testing.T) {
	opt := Options{Scheme: Reactive, DoDThreshold: 16, Budget: 20_000, Seed: 1, Telemetry: true}
	mix := workload.Mixes[0]
	res, err := RunMix(mix, opt, fakeSingles(mix))
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Grants.Count == 0 {
		t.Fatal("reactive scheme on a low-IPC mix recorded no second-level grants")
	}
	res.Raw.Telemetry.Grants(func(g telemetry.GrantInterval) {
		if g.Start < 0 || g.End < g.Start || g.End > res.Cycles {
			t.Fatalf("grant %+v outside run of %d cycles", g, res.Cycles)
		}
		if g.Misses < 1 {
			t.Fatalf("grant %+v with no misses", g)
		}
	})
}

func TestTelemetryDisabledByDefault(t *testing.T) {
	mix := workload.Mixes[0]
	res, err := RunMix(mix, Options{Scheme: Reactive, Budget: 5_000, Seed: 1}, fakeSingles(mix))
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil || res.Raw.Telemetry != nil {
		t.Fatal("telemetry attached without Options.Telemetry")
	}
}

// TestChromeTraceExportEndToEnd runs an instrumented mix and validates
// the exported trace is well-formed JSON whose counter timestamps are
// monotonically non-decreasing per track (pid, tid, counter name) —
// the structural contract Perfetto requires.
func TestChromeTraceExportEndToEnd(t *testing.T) {
	opt := Options{Scheme: Reactive, DoDThreshold: 16, Budget: 20_000, Seed: 1,
		Telemetry: true, TelemetrySampleInterval: 16}
	mix := workload.Mixes[0]
	res, err := RunMix(mix, opt, fakeSingles(mix))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Raw.Telemetry.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	type track struct {
		pid, tid int
		name     string
	}
	last := map[track]int64{}
	var counters, slices int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "C" && ev.Ph != "X" {
			continue
		}
		k := track{ev.Pid, ev.Tid, ev.Name}
		if ev.Ph == "X" {
			k.name = "grants" // all tenancy slices share one track
			slices++
			if ev.Dur < 1 {
				t.Fatalf("grant slice with dur %d", ev.Dur)
			}
		} else {
			counters++
		}
		if prev, ok := last[k]; ok && ev.Ts < prev {
			t.Fatalf("track %+v: ts %d after %d", k, ev.Ts, prev)
		}
		last[k] = ev.Ts
	}
	if counters == 0 || slices == 0 {
		t.Fatalf("trace has %d counters and %d grant slices; want both > 0", counters, slices)
	}
}

// TestTelemetrySimulationLoopAllocations proves the enabled hot path is
// allocation-free: with the collector preallocated at construction, an
// instrumented Run heap-allocates no more than an identical
// uninstrumented one. Telemetry on and off simulate bit-identical
// machines, so any extra mallocs would come from the per-cycle
// telemetry path. It runs R-ROB16 and CDR-ROB15, which between them
// fire every grant hook (R-ROB16 never piggybacks), and fails if a run
// stops reaching a hook the gate is meant to cover.
func TestTelemetrySimulationLoopAllocations(t *testing.T) {
	build := func(o Options) *pipeline.CPU {
		o = o.filled(4)
		mix := workload.Mixes[0]
		srcs := make([]pipeline.TraceSource, len(mix.Benchmarks))
		for i, b := range mix.Benchmarks {
			prof, ok := workload.ProfileFor(b)
			if !ok {
				t.Fatalf("unknown benchmark %q", b)
			}
			gen, err := workload.NewGenerator(prof, o.Seed*16+uint64(i)+1)
			if err != nil {
				t.Fatal(err)
			}
			srcs[i] = gen
		}
		cpu, err := pipeline.New(o.machineConfig(), srcs)
		if err != nil {
			t.Fatal(err)
		}
		return cpu
	}
	mallocsDuring := func(f func()) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	const budget = 8_000
	run := func(o Options) (mallocs uint64, res pipeline.Result) {
		cpu := build(o) // collector preallocation happens here, unmeasured
		mallocs = mallocsDuring(func() {
			var err error
			if res, err = cpu.Run(budget); err != nil {
				t.Fatal(err)
			}
		})
		return mallocs, res
	}
	var piggybacks uint64
	for _, o := range []Options{
		{Scheme: Reactive, DoDThreshold: 16, Seed: 1},
		{Scheme: CountDelayed, DoDThreshold: 15, Seed: 1},
	} {
		off, _ := run(o)
		o.Telemetry = true
		on, res := run(o)
		// Identical simulations: allow a little runtime background noise but
		// nothing that could hide a per-cycle (tens of thousands) allocation.
		const slack = 16
		if on > off+slack {
			t.Errorf("%v: instrumented run allocated %d objects, uninstrumented %d (+%d > %d slack)",
				o.Scheme, on, off, on-off, slack)
		}
		st := res.ROBStats
		if st.Allocations == 0 || st.Releases == 0 {
			t.Errorf("%v: %d grants and %d releases; the gate must exercise both hooks", o.Scheme, st.Allocations, st.Releases)
		}
		piggybacks += st.PiggybackGrants
	}
	if piggybacks == 0 {
		t.Error("no run piggybacked a grant; the gate must exercise GrantPiggyback")
	}
}
