package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"time"

	tlrob "repro"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/rob"
	"repro/internal/workload"
)

// simBudget is the per-thread instruction budget of every sim-* run:
// large enough that machine construction is a small share of a run,
// small enough that a run of the benchmark holds a dozen sweeps.
const simBudget = 50_000

// goldenSeeds is how many model seeds carry recorded golden values, so
// every run can check its simulated results exactly.
const goldenSeeds = 16

// seedsPerRun is how many model seeds one run rotates through, one per
// sweep, starting at seed mod goldenSeeds. The synthetic programs' work
// varies from seed to seed (simulated cycles per sweep by 11% on
// sim-membound), so a run over one seed would measure the seed, not the
// simulator.
const seedsPerRun = 4

// setupRepeats is how often set-up is repeated to report its median.
const setupRepeats = 3

// simMixes are the mixes of each sim workload: Mix 1-4 are the paper's
// memory-bound target, Mix 10-11 its high-ILP mixes.
var simMixes = map[string][]string{
	"sim-membound": {"Mix 1", "Mix 2", "Mix 3", "Mix 4"},
	"sim-busy":     {"Mix 10", "Mix 11"},
}

// simSchemes are the machines every sim workload sweeps, with the
// suffix of their per-scheme layer metric.
var simSchemes = []struct {
	spec   experiments.SchemeSpec
	suffix string
}{
	{experiments.Baseline32(), "baseline32"},
	{experiments.RROB(16), "rrob16"},
	{experiments.CDRROB(15), "cdrrob15"},
	{experiments.PROB(5), "prob5"},
}

// cell is one (scheme, mix) run of a sweep.
type cell struct {
	scheme int
	mix    workload.Mix
}

func simCells(name string) ([]cell, []string, error) {
	var cells []cell
	seen := map[string]bool{}
	var benches []string
	for s := range simSchemes {
		for _, mn := range simMixes[name] {
			m, ok := workload.MixByName(mn)
			if !ok {
				return nil, nil, fmt.Errorf("unknown mix %q", mn)
			}
			cells = append(cells, cell{scheme: s, mix: m})
			for _, b := range m.Benchmarks {
				if !seen[b] {
					seen[b] = true
					benches = append(benches, b)
				}
			}
		}
	}
	sort.Strings(benches)
	return cells, benches, nil
}

func (c cell) options(modelSeed uint64) tlrob.Options {
	opt := simSchemes[c.scheme].spec.Opt
	opt.Budget = simBudget
	opt.Seed = modelSeed
	return opt
}

// goldenCell is the exact simulated outcome of one cell.
type goldenCell struct {
	Scheme    string  `json:"scheme"`
	Mix       string  `json:"mix"`
	Cycles    int64   `json:"cycles"`
	Committed uint64  `json:"committed"`
	FT        float64 `json:"fair_throughput"`
}

// goldenFile maps a workload to its cells' outcomes per model seed
// (index = seed - 1).
type goldenFile struct {
	Budget    uint64                    `json:"budget"`
	Workloads map[string][][]goldenCell `json:"workloads"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden(name string, modelSeed uint64, cells []cell) ([]goldenCell, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	seeds := g.Workloads[name]
	if g.Budget != simBudget || modelSeed < 1 || int(modelSeed) > len(seeds) || len(seeds[modelSeed-1]) != len(cells) {
		return nil, fmt.Errorf("golden.json has no values for %s at seed %d and budget %d; rerun --record-golden", name, modelSeed, simBudget)
	}
	return seeds[modelSeed-1], nil
}

// asGolden is the cell's simulated result in golden form.
func (c cell) asGolden(cycles int64, committed uint64, ft float64) goldenCell {
	return goldenCell{Scheme: simSchemes[c.scheme].spec.Label, Mix: c.mix.Name, Cycles: cycles, Committed: committed, FT: ft}
}

func committedOf(r tlrob.MixResult) uint64 {
	var n uint64
	for _, th := range r.Threads {
		n += th.Committed
	}
	return n
}

// sweep is one pass over every cell of a sim workload at one model seed.
// Its times are the process's CPU time, not wall time: the simulator is
// compute-bound, and time stolen by the hypervisor, which moved
// wall-clock rates by up to 25% between runs on the shared 2-vCPU
// machine the benchmark was tuned on, is left out of CPU time.
type sweep struct {
	seed      uint64
	secs      float64 // CPU seconds
	wallSecs  float64
	committed uint64
	cellMs    []float64 // CPU milliseconds per cell
}

// simRun is the state of one sim workload run.
type simRun struct {
	name       string
	cells      []cell
	benches    []string
	modelSeeds []uint64
	golden     map[uint64][]goldenCell
	singles    map[uint64]map[string]float64
	attempted  int
	failed     int
}

// seedFor is the model seed of the run's k-th sweep.
func (s *simRun) seedFor(k int) uint64 { return s.modelSeeds[k%len(s.modelSeeds)] }

// check counts one cell run and compares it with the golden value.
func (s *simRun) check(seed uint64, i int, err error, got goldenCell) {
	s.attempted++
	if err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d %s/%s: %v\n", s.name, seed, got.Scheme, got.Mix, err)
		return
	}
	if want := s.golden[seed][i]; got != want {
		s.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: got %+v, golden %+v\n", s.name, seed, got, want)
	}
}

// untracedSweep runs every cell through tlrob.RunMix, as a library
// user would.
func (s *simRun) untracedSweep(seed uint64) sweep {
	sw := sweep{seed: seed, cellMs: make([]float64, len(s.cells))}
	start, cpu := time.Now(), processCPU()
	for i, c := range s.cells {
		t := processCPU()
		r, err := tlrob.RunMix(c.mix, c.options(seed), s.singles[seed])
		sw.cellMs[i] = ms(processCPU() - t)
		s.check(seed, i, err, c.asGolden(r.Cycles, committedOf(r), r.FairThroughput))
		sw.committed += committedOf(r)
	}
	sw.wallSecs = time.Since(start).Seconds()
	sw.secs = (processCPU() - cpu).Seconds()
	return sw
}

func runSim(name string, seed uint64, window time.Duration, traced bool) (outcome, error) {
	cells, benches, err := simCells(name)
	if err != nil {
		return outcome{}, err
	}
	s := &simRun{name: name, cells: cells, benches: benches, golden: map[uint64][]goldenCell{}}
	for j := uint64(0); j < seedsPerRun; j++ {
		mseed := (seed+j)%goldenSeeds + 1
		s.modelSeeds = append(s.modelSeeds, mseed)
		if s.golden[mseed], err = loadGolden(name, mseed, cells); err != nil {
			return outcome{}, err
		}
	}

	// Set-up: the single-thread reference IPCs behind fair throughput,
	// for every model seed of the run.
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		singles := map[uint64]map[string]float64{}
		for _, mseed := range s.modelSeeds {
			if singles[mseed], err = tlrob.SingleIPCs(benches, tlrob.Options{Budget: simBudget, Seed: mseed}); err != nil {
				return outcome{}, err
			}
		}
		setup = append(setup, time.Since(t).Seconds())
		if s.singles != nil && !reflect.DeepEqual(singles, s.singles) {
			return outcome{}, fmt.Errorf("single-thread IPCs differ between set-ups")
		}
		s.singles = singles
	}

	out := outcome{metrics: map[string]float64{}, diag: map[string]float64{}}
	cpu0 := readCPUTimes()
	gc := startGC()
	start := time.Now()
	phase := window
	if traced {
		phase = window / 2
	}
	var sweeps []sweep
	for len(sweeps) == 0 || time.Since(start) < phase {
		sweeps = append(sweeps, s.untracedSweep(s.seedFor(len(sweeps))))
	}
	fig := sweepMetrics(sweeps)
	if traced {
		tr, err := s.tracedPhase(window - time.Since(start))
		if err != nil {
			return outcome{}, err
		}
		for k, v := range tr {
			out.metrics[k] = v
		}
		out.metrics["tlrob.singles_s"] = median(setup)
		out.metrics["trace.overhead_ratio"] = fig.kips / tr["trace.kips"]
	}
	out.metrics["sim_kips"] = fig.kips
	out.metrics["rps"] = fig.rps
	out.metrics["p50_ms"] = fig.p50
	out.metrics["setup_s"] = median(setup)
	out.diag["sweeps"] = float64(len(sweeps))
	out.diag["wall_kips"] = fig.wallKips
	out.diag["spread.sweep_kips"] = spread(fig.sweepKips)
	out.diag["spread.setup_s"] = spread(setup)
	out.diag["host.steal_share"] = stealShare(cpu0, readCPUTimes())
	out.diag["runtime.gc_cycles"], _ = gc.stop()
	out.metrics["host.steal_share"] = out.diag["host.steal_share"]
	out.attempted, out.failed = s.attempted, s.failed
	return out, nil
}

// simFigures are a sim run's end-to-end figures.
type simFigures struct {
	kips, rps, p50 float64
	wallKips       float64 // the same rate over wall time, a diagnostic
	// sweepKips is each sweep's rate, for the within-run spread.
	sweepKips []float64
}

// sweepMetrics reduces sweeps to the end-to-end figures. Simulated
// kilo-instructions and runs per host second are taken per model seed
// over all its sweeps and combined over seeds by geometric mean, so each
// seed weighs the same however many sweeps it got. The latency of one
// run is the median per class of run, a (cell, seed) pair, combined
// over classes by geometric mean.
func sweepMetrics(sweeps []sweep) simFigures {
	type tot struct {
		secs, wall float64
		committed  uint64
		runs       int
	}
	bySeed := map[uint64]*tot{}
	type class struct {
		seed uint64
		cell int
	}
	perClass := map[class][]float64{}
	var f simFigures
	for _, sw := range sweeps {
		t := bySeed[sw.seed]
		if t == nil {
			t = &tot{}
			bySeed[sw.seed] = t
		}
		t.secs += sw.secs
		t.wall += sw.wallSecs
		t.committed += sw.committed
		t.runs += len(sw.cellMs)
		f.sweepKips = append(f.sweepKips, float64(sw.committed)/1000/sw.secs)
		for i, v := range sw.cellMs {
			k := class{sw.seed, i}
			perClass[k] = append(perClass[k], v)
		}
	}
	var kips, rps, p50, wallKips []float64
	for _, t := range bySeed {
		kips = append(kips, float64(t.committed)/1000/t.secs)
		wallKips = append(wallKips, float64(t.committed)/1000/t.wall)
		rps = append(rps, float64(t.runs)/t.secs)
	}
	for _, v := range perClass {
		p50 = append(p50, median(v))
	}
	f.kips, f.rps, f.p50 = geomean(kips), geomean(rps), geomean(p50)
	f.wallKips = geomean(wallKips)
	return f
}

// machineConfig mirrors tlrob's option defaults and machine assembly, so
// the traced phase can time pipeline.New and CPU.Run separately. The
// golden check on every traced cell catches any drift from tlrob.
func machineConfig(o tlrob.Options, threads int, naive bool) pipeline.Config {
	twoLevel := o.Scheme != tlrob.Baseline && o.Scheme != tlrob.SharedSingle
	robCfg := rob.Config{
		Threads:         threads,
		L1Size:          o.L1ROB,
		L2Size:          o.L2ROB,
		Scheme:          o.Scheme,
		DoDThreshold:    o.DoDThreshold,
		RecheckInterval: 10,
		CountDelay:      32,
		PredEntries:     4096,
		PredHistBits:    8,
	}
	if robCfg.L1Size == 0 {
		robCfg.L1Size = 32
	}
	if twoLevel && robCfg.L2Size == 0 {
		robCfg.L2Size = 384
	}
	if twoLevel && robCfg.DoDThreshold == 0 {
		robCfg.DoDThreshold = 16
	}
	cfg := pipeline.DefaultConfig(threads, robCfg)
	cfg.PolicyKind = o.Policy
	cfg.NaiveTicker = naive
	return cfg
}

// tracedCell is one cell run with the machine build and the simulation
// timed apart.
type tracedCell struct {
	res        pipeline.Result
	cpu        time.Duration // process CPU time of the whole cell
	newD, runD time.Duration
	committed  uint64
	ft         float64
}

func (s *simRun) runTraced(c cell, seed uint64, naive bool) (tracedCell, error) {
	opt := c.options(seed)
	cpu0 := processCPU()
	sources := make([]pipeline.TraceSource, len(c.mix.Benchmarks))
	for i, b := range c.mix.Benchmarks {
		prof, ok := workload.ProfileFor(b)
		if !ok {
			return tracedCell{}, fmt.Errorf("unknown benchmark %q", b)
		}
		gen, err := workload.NewGenerator(prof, opt.Seed*16+uint64(i)+1)
		if err != nil {
			return tracedCell{}, err
		}
		sources[i] = gen
	}
	t := time.Now()
	machine, err := pipeline.New(machineConfig(opt, len(sources), naive), sources)
	if err != nil {
		return tracedCell{}, err
	}
	tc := tracedCell{newD: time.Since(t)}
	t = time.Now()
	if tc.res, err = machine.Run(opt.Budget); err != nil {
		return tracedCell{}, err
	}
	tc.runD = time.Since(t)
	tc.cpu = processCPU() - cpu0
	weighted := make([]float64, len(sources))
	for i, b := range c.mix.Benchmarks {
		weighted[i] = metrics.WeightedIPC(tc.res.IPC[i], s.singles[seed][b])
		tc.committed += tc.res.Committed[i]
	}
	tc.ft = metrics.FairThroughput(weighted)
	return tc, nil
}

// tracedPhase sweeps with pipeline.New and CPU.Run timed apart, then
// runs the last sweep again on the naive cycle-by-cycle engine, which
// must agree bit for bit. It returns the per-layer metrics.
func (s *simRun) tracedPhase(window time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	gc := startGC()
	start := time.Now()
	var (
		sweeps     []sweep
		newUs      []float64
		last       []tracedCell
		lastSeed   uint64
		runNs      = map[int]time.Duration{}
		runInst    = map[int]uint64{}
		runAll     time.Duration
		inst, cycs uint64
	)
	for len(sweeps) == 0 || time.Since(start) < window {
		lastSeed = s.seedFor(len(sweeps))
		sw := sweep{seed: lastSeed, cellMs: make([]float64, len(s.cells))}
		last = last[:0]
		for i, c := range s.cells {
			tc, err := s.runTraced(c, lastSeed, false)
			s.check(lastSeed, i, err, c.asGolden(tc.res.Cycles, tc.committed, tc.ft))
			if err != nil {
				return nil, err
			}
			last = append(last, tc)
			sw.committed += tc.committed
			sw.secs += tc.cpu.Seconds()
			sw.cellMs[i] = ms(tc.cpu)
			newUs = append(newUs, float64(tc.newD)/float64(time.Microsecond))
			runNs[c.scheme] += tc.runD
			runInst[c.scheme] += tc.committed
			runAll += tc.runD
			inst += tc.committed
			cycs += uint64(tc.res.Cycles)
		}
		sweeps = append(sweeps, sw)
	}
	m["runtime.gc_cycles"], m["runtime.alloc_mb"] = gc.stop()
	m["trace.kips"] = sweepMetrics(sweeps).kips
	m["pipeline.new_us"] = median(newUs)
	m["pipeline.run_ns_per_inst"] = float64(runAll) / float64(inst)
	m["pipeline.run_ns_per_cycle"] = float64(runAll) / float64(cycs)
	for i, sc := range simSchemes {
		m["pipeline.run_ns_per_inst."+sc.suffix] = float64(runNs[i]) / float64(runInst[i])
	}

	// Exact model counts of one sweep: a change meant only to speed the
	// simulator up must leave every one of them unchanged.
	var cycles, committed, grants, owned, l2miss, mshr uint64
	for _, tc := range last {
		cycles += uint64(tc.res.Cycles)
		committed += tc.committed
		grants += tc.res.ROBStats.Allocations + tc.res.ROBStats.PiggybackGrants
		owned += tc.res.ROBStats.OwnedCycles
		l2miss += tc.res.HierStats.L2MissLoads
		mshr += tc.res.HierStats.MSHRStalls
	}
	m["sim.cpi"] = float64(cycles) / float64(committed)
	m["sim.committed"] = float64(committed)
	m["rob.grants_per_kinst"] = float64(grants) * 1000 / float64(committed)
	m["rob.owned_share"] = float64(owned) / float64(cycles)
	m["cache.l2_miss_per_kinst"] = float64(l2miss) * 1000 / float64(committed)
	m["cache.mshr_stalls"] = float64(mshr)

	// Skip-ahead against the naive engine on the same cells.
	var naiveRun, skipRun time.Duration
	for i, c := range s.cells {
		tc, err := s.runTraced(c, lastSeed, true)
		s.attempted++
		if err != nil || !reflect.DeepEqual(tc.res, last[i].res) {
			s.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s/%s: naive and skip-ahead engines disagree (err %v)\n",
				s.name, simSchemes[c.scheme].spec.Label, c.mix.Name, err)
			continue
		}
		naiveRun += tc.runD
		skipRun += last[i].runD
	}
	m["pipeline.skip_speedup"] = float64(naiveRun) / float64(skipRun)
	m["workload.gen_ns_per_inst"] = genNsPerInst(s.benches, lastSeed)
	return m, nil
}

// genNsPerInst drains a workload.Generator per benchmark standalone and
// returns the host nanoseconds per generated instruction.
func genNsPerInst(benches []string, modelSeed uint64) float64 {
	const n = 200_000
	var total time.Duration
	var inst isa.TraceInst
	for _, b := range benches {
		prof, _ := workload.ProfileFor(b)
		gen := workload.MustNewGenerator(prof, modelSeed*16+1)
		t := time.Now()
		for i := 0; i < n; i++ {
			gen.Next(&inst)
		}
		total += time.Since(t)
	}
	return float64(total) / float64(n*len(benches))
}

// recordGolden recomputes every sim workload's golden values for all
// model seeds and writes them to path.
func recordGolden(path string) error {
	g := goldenFile{Budget: simBudget, Workloads: map[string][][]goldenCell{}}
	names := make([]string, 0, len(simMixes))
	for name := range simMixes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cells, benches, err := simCells(name)
		if err != nil {
			return err
		}
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			singles, err := tlrob.SingleIPCs(benches, tlrob.Options{Budget: simBudget, Seed: seed})
			if err != nil {
				return err
			}
			var row []goldenCell
			for _, c := range cells {
				r, err := tlrob.RunMix(c.mix, c.options(seed), singles)
				if err != nil {
					return err
				}
				row = append(row, c.asGolden(r.Cycles, committedOf(r), r.FairThroughput))
			}
			g.Workloads[name] = append(g.Workloads[name], row)
			fmt.Fprintf(os.Stderr, "perfbench: recorded %s seed %d\n", name, seed)
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
