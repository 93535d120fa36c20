package pipeline

import (
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/policy"
	"repro/internal/rob"
	"repro/internal/uop"
	"repro/internal/workload"
)

// syntheticSource replays a fixed slice of instructions in a loop.
type syntheticSource struct {
	insts   []isa.TraceInst
	pos     int
	targets map[uint64]uint64
}

func (s *syntheticSource) Next(out *isa.TraceInst) {
	*out = s.insts[s.pos]
	s.pos = (s.pos + 1) % len(s.insts)
}

func (s *syntheticSource) BranchTarget(pc uint64) uint64 { return s.targets[pc] }

// aluLoop builds a branch-free ALU stream (reg i writes rotate).
func aluLoop(n int) *syntheticSource {
	insts := make([]isa.TraceInst, n)
	for i := range insts {
		insts[i] = isa.TraceInst{
			PC:   0x1000 + uint64(i)*4,
			Op:   isa.OpIntAlu,
			Dest: int8(1 + i%20),
			Src1: int8(1 + (i+7)%20),
			Src2: 0,
		}
	}
	return &syntheticSource{insts: insts}
}

func baselineCfg(threads, l1 int) Config {
	return DefaultConfig(threads, rob.Config{Threads: threads, L1Size: l1, Scheme: rob.Baseline})
}

func run(t *testing.T, cfg Config, srcs []TraceSource, budget uint64) Result {
	t.Helper()
	c, err := New(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	cfg := baselineCfg(1, 32)
	cfg.Threads = 2 // mismatch with ROB config
	if _, err := New(cfg, make([]TraceSource, 2)); err == nil {
		t.Fatal("thread/ROB mismatch accepted")
	}
	cfg = baselineCfg(1, 32)
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("missing sources accepted")
	}
	cfg.IssueWidth = 0
	if _, err := New(cfg, []TraceSource{aluLoop(8)}); err == nil {
		t.Fatal("zero issue width accepted")
	}
}

func TestALUThroughput(t *testing.T) {
	res := run(t, baselineCfg(1, 32), []TraceSource{aluLoop(64)}, 20000)
	if res.IPC[0] < 1.5 {
		t.Fatalf("ALU-only IPC %.2f too low for an 8-wide machine", res.IPC[0])
	}
	if res.Committed[0] < 20000 {
		t.Fatalf("committed %d", res.Committed[0])
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// Every instruction depends on the previous one: IPC must approach 1.
	insts := make([]isa.TraceInst, 32)
	for i := range insts {
		insts[i] = isa.TraceInst{
			PC: 0x1000 + uint64(i)*4, Op: isa.OpIntAlu,
			Dest: 5, Src1: 5, Src2: 0,
		}
	}
	res := run(t, baselineCfg(1, 32), []TraceSource{&syntheticSource{insts: insts}}, 5000)
	if res.IPC[0] > 1.2 {
		t.Fatalf("serial chain IPC %.2f exceeds 1", res.IPC[0])
	}
	if res.IPC[0] < 0.7 {
		t.Fatalf("serial chain IPC %.2f far below 1", res.IPC[0])
	}
}

func TestLongLatencyOpsThrottle(t *testing.T) {
	// FP divides with issue interval 12 on 4 units: peak throughput 1/3.
	insts := make([]isa.TraceInst, 16)
	for i := range insts {
		insts[i] = isa.TraceInst{
			PC: 0x1000 + uint64(i)*4, Op: isa.OpFPDiv,
			Dest: int8(isa.NumIntRegs + 1 + i%16), Src1: int8(isa.NumIntRegs), Src2: int8(isa.NumIntRegs),
		}
	}
	res := run(t, baselineCfg(1, 32), []TraceSource{&syntheticSource{insts: insts}}, 3000)
	if res.IPC[0] > 0.4 {
		t.Fatalf("divider-bound IPC %.2f above 4/12", res.IPC[0])
	}
}

func TestDeterministicRuns(t *testing.T) {
	prof, _ := workload.ProfileFor("parser")
	mk := func() Result {
		g := workload.MustNewGenerator(prof, 11)
		return run(t, baselineCfg(1, 32), []TraceSource{g}, 20000)
	}
	a, b := mk(), mk()
	if a.Cycles != b.Cycles || a.Committed[0] != b.Committed[0] {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d", a.Cycles, a.Committed[0], b.Cycles, b.Committed[0])
	}
}

func TestBranchMispredictionCostsCycles(t *testing.T) {
	prof, _ := workload.ProfileFor("crafty")
	g := workload.MustNewGenerator(prof, 3)
	res := run(t, baselineCfg(1, 32), []TraceSource{g}, 30000)
	if res.Branch.Mispreds == 0 {
		t.Fatal("no mispredictions on a branchy benchmark")
	}
	if res.WrongPathDispatched == 0 {
		t.Fatal("no wrong-path instructions modelled")
	}
	if res.SquashedUops == 0 {
		t.Fatal("no squashes despite mispredictions")
	}
}

func TestWrongPathNeverCommits(t *testing.T) {
	// Implicitly verified by the commit-stage panic; run a branchy load-
	// heavy mix to exercise it.
	prof, _ := workload.ProfileFor("vpr")
	g := workload.MustNewGenerator(prof, 5)
	res := run(t, baselineCfg(1, 32), []TraceSource{g}, 20000)
	if res.Committed[0] < 20000 {
		t.Fatal("did not finish")
	}
}

func TestMemoryBoundSlowerThanComputeBound(t *testing.T) {
	art, _ := workload.ProfileFor("art")
	mesa, _ := workload.ProfileFor("mesa")
	a := run(t, baselineCfg(1, 32), []TraceSource{workload.MustNewGenerator(art, 1)}, 20000)
	m := run(t, baselineCfg(1, 32), []TraceSource{workload.MustNewGenerator(mesa, 1)}, 20000)
	if a.IPC[0]*5 > m.IPC[0] {
		t.Fatalf("memory-bound art (%.3f) not clearly slower than mesa (%.3f)", a.IPC[0], m.IPC[0])
	}
}

func TestLargerWindowHelpsMemoryBound(t *testing.T) {
	// The enabling observation of the paper: art alone speeds up
	// substantially with a larger ROB (more MLP).
	art, _ := workload.ProfileFor("art")
	small := run(t, baselineCfg(1, 32), []TraceSource{workload.MustNewGenerator(art, 1)}, 20000)
	big := run(t, baselineCfg(1, 256), []TraceSource{workload.MustNewGenerator(art, 1)}, 20000)
	if big.IPC[0] < 1.5*small.IPC[0] {
		t.Fatalf("window scaling: 32-entry %.4f vs 256-entry %.4f", small.IPC[0], big.IPC[0])
	}
}

func TestSMTThroughputExceedsSingleThread(t *testing.T) {
	parser, _ := workload.ProfileFor("parser")
	crafty, _ := workload.ProfileFor("crafty")
	single := run(t, baselineCfg(1, 32), []TraceSource{workload.MustNewGenerator(parser, 1)}, 20000)
	duo := run(t, baselineCfg(2, 32), []TraceSource{
		workload.MustNewGenerator(parser, 1),
		workload.MustNewGenerator(crafty, 2),
	}, 20000)
	if duo.IPC[0]+duo.IPC[1] <= single.IPC[0] {
		t.Fatalf("SMT throughput %.3f below single-thread %.3f",
			duo.IPC[0]+duo.IPC[1], single.IPC[0])
	}
}

func TestFourThreadMixRuns(t *testing.T) {
	mix, _ := workload.MixByName("Mix 5")
	gens, err := workload.MixGenerators(mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]TraceSource, 4)
	for i := range gens {
		srcs[i] = gens[i]
	}
	res := run(t, baselineCfg(4, 32), srcs, 20000)
	for tid, c := range res.Committed {
		if c == 0 {
			t.Fatalf("thread %d starved completely", tid)
		}
	}
	if res.DoDHist.Total() == 0 {
		t.Fatal("no DoD observations on a memory-bound mix")
	}
}

func TestTwoLevelROBAllocates(t *testing.T) {
	mix, _ := workload.MixByName("Mix 1")
	gens, _ := workload.MixGenerators(mix, 1)
	srcs := make([]TraceSource, 4)
	for i := range gens {
		srcs[i] = gens[i]
	}
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	res := run(t, cfg, srcs, 20000)
	if res.ROBStats.Allocations == 0 {
		t.Fatal("reactive scheme never allocated on a 4-low mix")
	}
	if res.ROBStats.Releases == 0 {
		t.Fatal("partition never released")
	}
	if res.ROBStats.Releases > res.ROBStats.Allocations {
		t.Fatalf("more releases than allocations: %+v", res.ROBStats)
	}
}

func TestReactiveBeatsBaselineOnMemoryBoundMix(t *testing.T) {
	mix, _ := workload.MixByName("Mix 1")
	runScheme := func(robCfg rob.Config) Result {
		gens, _ := workload.MixGenerators(mix, 1)
		srcs := make([]TraceSource, 4)
		for i := range gens {
			srcs[i] = gens[i]
		}
		return run(t, DefaultConfig(4, robCfg), srcs, 40000)
	}
	base := runScheme(rob.Config{Threads: 4, L1Size: 32, Scheme: rob.Baseline})
	rrob := runScheme(rob.DefaultConfig(4, rob.Reactive, 16))
	baseTot, rrobTot := 0.0, 0.0
	for tid := range base.IPC {
		baseTot += base.IPC[tid]
		rrobTot += rrob.IPC[tid]
	}
	if rrobTot <= baseTot {
		t.Fatalf("R-ROB throughput %.4f not above baseline %.4f", rrobTot, baseTot)
	}
}

func TestExactDoDTracking(t *testing.T) {
	mix, _ := workload.MixByName("Mix 1")
	gens, _ := workload.MixGenerators(mix, 1)
	srcs := make([]TraceSource, 4)
	for i := range gens {
		srcs[i] = gens[i]
	}
	cfg := baselineCfg(4, 32)
	cfg.TrackExactDoD = true
	res := run(t, cfg, srcs, 10000)
	if res.ApproxDoDSamples == 0 {
		t.Fatal("exact-DoD comparison collected no samples")
	}
	mean := float64(res.ApproxExactDiffSum) / float64(res.ApproxDoDSamples)
	// The approximation must be close-ish to the truth at service time
	// (the paper's argument for the cheap counter).
	if mean > 16 {
		t.Fatalf("approximate DoD off by %.1f on average", mean)
	}
}

func TestStallPolicyGatesFetch(t *testing.T) {
	art, _ := workload.ProfileFor("art")
	cfg := baselineCfg(1, 32)
	cfg.PolicyKind = policy.STALL
	res := run(t, cfg, []TraceSource{workload.MustNewGenerator(art, 1)}, 10000)
	if res.Committed[0] < 10000 {
		t.Fatal("STALL policy deadlocked a single thread")
	}
}

func TestFlushPolicySquashes(t *testing.T) {
	art, _ := workload.ProfileFor("art")
	cfg := baselineCfg(1, 32)
	cfg.PolicyKind = policy.FLUSH
	res := run(t, cfg, []TraceSource{workload.MustNewGenerator(art, 1)}, 10000)
	if res.FlushSquashes == 0 {
		t.Fatal("FLUSH policy never flushed on a miss-heavy benchmark")
	}
	if res.Committed[0] < 10000 {
		t.Fatal("FLUSH run did not finish")
	}
}

func TestICountPolicyRuns(t *testing.T) {
	mix, _ := workload.MixByName("Mix 5")
	gens, _ := workload.MixGenerators(mix, 1)
	srcs := make([]TraceSource, 4)
	for i := range gens {
		srcs[i] = gens[i]
	}
	cfg := baselineCfg(4, 32)
	cfg.PolicyKind = policy.ICOUNT
	res := run(t, cfg, srcs, 15000)
	for tid, c := range res.Committed {
		if c == 0 {
			t.Fatalf("ICOUNT starved thread %d", tid)
		}
	}
}

func TestLoadHitPredictorExercised(t *testing.T) {
	parser, _ := workload.ProfileFor("parser")
	res := run(t, baselineCfg(1, 32), []TraceSource{workload.MustNewGenerator(parser, 1)}, 20000)
	if res.LoadHit.Lookups == 0 {
		t.Fatal("load-hit predictor never consulted")
	}
}

func TestStoreForwardingHappens(t *testing.T) {
	// Store then load to the same address back-to-back.
	insts := []isa.TraceInst{
		{PC: 0x1000, Op: isa.OpIntAlu, Dest: 1, Src1: 0, Src2: 0},
		{PC: 0x1004, Op: isa.OpStore, Dest: isa.RegNone, Src1: 1, Src2: 2, Addr: 0x4008},
		{PC: 0x1008, Op: isa.OpLoad, Dest: 3, Src1: 0, Src2: isa.RegNone, Addr: 0x4008},
		{PC: 0x100c, Op: isa.OpIntAlu, Dest: 4, Src1: 3, Src2: 0},
	}
	res := run(t, baselineCfg(1, 32), []TraceSource{&syntheticSource{insts: insts}}, 4000)
	if res.LSQStats.Forwarded == 0 {
		t.Fatal("no store-to-load forwarding")
	}
}

func TestBudgetStopsAtFirstThread(t *testing.T) {
	fast := aluLoop(64)
	slow, _ := workload.ProfileFor("mcf")
	res := run(t, baselineCfg(2, 32), []TraceSource{fast, workload.MustNewGenerator(slow, 1)}, 5000)
	if res.Committed[0] < 5000 {
		t.Fatal("fast thread under budget")
	}
	if res.Committed[1] >= 5000 {
		t.Fatal("slow thread also hit budget — stop rule broken")
	}
}

func TestZeroBudgetRejected(t *testing.T) {
	c, err := New(baselineCfg(1, 32), []TraceSource{aluLoop(8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestEarlyRegReleaseRuns(t *testing.T) {
	mix, _ := workload.MixByName("Mix 1")
	gens, _ := workload.MixGenerators(mix, 1)
	srcs := make([]TraceSource, 4)
	for i := range gens {
		srcs[i] = gens[i]
	}
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	cfg.EarlyRegRelease = true
	res := run(t, cfg, srcs, 25000)
	if res.EarlyRegReleases == 0 {
		t.Fatal("early register release never fired")
	}
	for tid, c := range res.Committed {
		if c == 0 {
			t.Fatalf("thread %d starved", tid)
		}
	}
}

func TestEarlyRegReleaseRejectedUnderFlush(t *testing.T) {
	cfg := baselineCfg(1, 32)
	cfg.PolicyKind = policy.FLUSH
	cfg.EarlyRegRelease = true
	if _, err := New(cfg, []TraceSource{aluLoop(8)}); err == nil {
		t.Fatal("early release under FLUSH accepted")
	}
}

func TestEarlyRegReleaseDeterministicAndConsistent(t *testing.T) {
	prof, _ := workload.ProfileFor("vpr") // branchy + memory-bound: stresses the gate
	mk := func() Result {
		cfg := baselineCfg(1, 32)
		cfg.EarlyRegRelease = true
		g := workload.MustNewGenerator(prof, 11)
		return run(t, cfg, []TraceSource{g}, 15000)
	}
	a, b := mk(), mk()
	if a.Cycles != b.Cycles || a.EarlyRegReleases != b.EarlyRegReleases {
		t.Fatal("early-release runs not deterministic")
	}
}

func TestMLPPolicyRuns(t *testing.T) {
	mix, _ := workload.MixByName("Mix 1")
	gens, _ := workload.MixGenerators(mix, 1)
	srcs := make([]TraceSource, 4)
	for i := range gens {
		srcs[i] = gens[i]
	}
	cfg := baselineCfg(4, 32)
	cfg.PolicyKind = policy.MLP
	res := run(t, cfg, srcs, 15000)
	for tid, c := range res.Committed {
		if c == 0 {
			t.Fatalf("MLP policy starved thread %d", tid)
		}
	}
}

func TestCommitHookSeesProgramOrder(t *testing.T) {
	// The committed PC stream of each thread must equal the trace prefix —
	// the end-to-end correctness statement for squash, replay and FLUSH.
	prof, _ := workload.ProfileFor("vpr")
	ref := workload.MustNewGenerator(prof, 21)
	var want []uint64
	var ti isa.TraceInst
	for i := 0; i < 12000; i++ {
		ref.Next(&ti)
		want = append(want, ti.PC)
	}
	for _, pol := range []policy.Kind{policy.DCRA, policy.FLUSH} {
		cfg := baselineCfg(1, 32)
		cfg.PolicyKind = pol
		c, err := New(cfg, []TraceSource{workload.MustNewGenerator(prof, 21)})
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		c.CommitHook = func(tid int, u *uop.UOp) { got = append(got, u.PC) }
		if _, err := c.Run(12000); err != nil {
			t.Fatal(err)
		}
		if len(got) < 12000 {
			t.Fatalf("%v: committed %d", pol, len(got))
		}
		for i := 0; i < 12000; i++ {
			if got[i] != want[i] {
				t.Fatalf("%v: commit %d: pc %#x, trace has %#x", pol, i, got[i], want[i])
			}
		}
	}
}

// TestRunHeapFlatInBudget requires the heap CPU.Run allocates to stay
// nearly flat as the instruction budget grows 16-fold: per-cycle state
// (the front-end ring, replay queues, event heap) is sized by the
// machine, not by how long it runs.
func TestRunHeapFlatInBudget(t *testing.T) {
	const maxGrowth = 128 << 10
	runAlloc := func(mixName string, budget uint64) uint64 {
		c, err := New(DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16)), mixSources(t, mixName, 1))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.Run(budget); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, mix := range []string{"Mix 1", "Mix 10"} {
		short, long := runAlloc(mix, 5_000), runAlloc(mix, 80_000)
		t.Logf("%s: Run allocates %d B at 5k, %d B at 80k", mix, short, long)
		if long > short+maxGrowth {
			t.Errorf("%s: Run's heap grows %d B from a 5k to an 80k budget, want under %d", mix, long-short, maxGrowth)
		}
	}
}
