package pipeline

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/rob"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// FuzzEnginesAgree states the differential invariant once and lets the
// fuzzer pick the machine: for any small configuration Validate
// accepts, skip-ahead and the naive ticker give bit-identical Results
// (or the same error), and with telemetry on every thread's active plus
// stall cycles add up to the run's cycles. The fuzzer draws the thread
// count (1–4), ROB scheme, first- and second-level ROB sizes, DoD
// threshold, recheck interval, fetch policy, telemetry, mix, seed and a
// budget of at most 2,000 instructions per thread. A crasher it finds
// is committed under testdata/fuzz/FuzzEnginesAgree with its fix.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(uint8(3), uint8(rob.Reactive), uint8(32), uint8(96), uint8(16), uint8(10), uint8(policy.DCRA), true, uint8(0), uint64(1), uint16(1500))
	f.Add(uint8(1), uint8(rob.Predictive), uint8(8), uint8(16), uint8(5), uint8(1), uint8(policy.FLUSH), false, uint8(2), uint64(7), uint16(800))
	f.Add(uint8(1), uint8(rob.Baseline), uint8(32), uint8(0), uint8(0), uint8(0), uint8(policy.ICOUNT), true, uint8(9), uint64(3), uint16(2000))
	f.Add(uint8(2), uint8(rob.CountDelayedReactive), uint8(4), uint8(200), uint8(60), uint8(7), uint8(policy.MLP), true, uint8(3), uint64(11), uint16(1200))
	f.Add(uint8(3), uint8(rob.SharedSingle), uint8(16), uint8(0), uint8(0), uint8(0), uint8(policy.STALL), false, uint8(10), uint64(2), uint16(600))
	f.Add(uint8(0), uint8(rob.RelaxedReactive), uint8(20), uint8(50), uint8(12), uint8(3), uint8(policy.DCRA), true, uint8(1), uint64(5), uint16(1000))

	f.Fuzz(func(t *testing.T, threads, scheme, l1, l2, dod, recheck, pol uint8, tel bool, mix uint8, seed uint64, budget uint16) {
		n := 1 + int(threads)%4
		rc := rob.DefaultConfig(n, rob.Scheme(scheme%(uint8(rob.SharedSingle)+1)), int(dod)%64)
		rc.L1Size = int(l1) % 129
		rc.L2Size = 4 * int(l2)
		rc.RecheckInterval = int(recheck) % 33
		cfg := DefaultConfig(n, rc)
		cfg.PolicyKind = policy.Kind(pol % (uint8(policy.MLP) + 1))
		if tel {
			cfg.Telemetry = &telemetry.Config{}
		}
		if check := cfg; check.Validate() != nil {
			t.Skip("configuration rejected by Validate")
		}
		m := workload.Mixes[int(mix)%len(workload.Mixes)]
		b := 1 + uint64(budget)%2000

		runEngine := func(naive bool) (Result, error) {
			c := cfg
			c.NaiveTicker = naive
			cpu, err := New(c, mixSources(t, m.Name, seed)[:n])
			if err != nil {
				return Result{}, err
			}
			return cpu.Run(b)
		}
		naive, nerr := runEngine(true)
		fast, ferr := runEngine(false)
		if (nerr == nil) != (ferr == nil) || (nerr != nil && nerr.Error() != ferr.Error()) {
			t.Fatalf("engines disagree on failure: naive %v, skip-ahead %v", nerr, ferr)
		}
		if nerr != nil {
			return
		}
		requireIdentical(t, naive, fast)
		if !tel {
			return
		}
		sum := fast.Telemetry.Summary()
		if sum.Cycles != fast.Cycles {
			t.Fatalf("telemetry saw %d cycles, run took %d", sum.Cycles, fast.Cycles)
		}
		if err := sum.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
	})
}
