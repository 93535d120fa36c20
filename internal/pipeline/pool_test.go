package pipeline

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/predictor"
	"repro/internal/rob"
	"repro/internal/telemetry"
)

// freshParts builds a machine that bypasses the pool.
var freshParts = parts{cache.NewHierarchy, predictor.NewBTB, rob.NewRing}

// TestReusedMachineMatchesFresh: a machine built on a reused memory
// hierarchy, BTB and ROB rings runs bit-identically to one built fresh,
// across mixes, schemes, seeds, telemetry and budgets, and a Result
// stays unchanged after the next run reuses its machine. Two workers
// share the pool, each running its half of the matrix in order. Every
// job runs three times: on a fresh machine (the reference), on one from
// New that is then released to the pool, and on one forced to reuse the
// hierarchy, BTB and rings of the worker's previous job (rings only
// where their capacity matches), since sync.Pool may drop what it holds.
func TestReusedMachineMatchesFresh(t *testing.T) {
	schemes := []struct {
		name string
		cfg  rob.Config
	}{
		{"Baseline_32", rob.Config{Threads: 4, L1Size: 32, Scheme: rob.Baseline}},
		{"RROB_16", rob.DefaultConfig(4, rob.Reactive, 16)},
		{"CDRROB_15", rob.DefaultConfig(4, rob.CountDelayedReactive, 15)},
		{"PROB_5", rob.DefaultConfig(4, rob.Predictive, 5)},
	}
	type job struct {
		name   string
		cfg    Config
		mix    string
		seed   uint64
		budget uint64
	}
	var jobs []job
	for _, budget := range []uint64{1_000, 20_000} {
		for _, sc := range schemes {
			for _, mix := range []string{"Mix 1", "Mix 10"} {
				for _, seed := range []uint64{1, 2} {
					for _, tel := range []bool{false, true} {
						cfg := DefaultConfig(4, sc.cfg)
						if tel {
							cfg.Telemetry = &telemetry.Config{}
						}
						jobs = append(jobs, job{
							name: fmt.Sprintf("%s/%s/seed%d/tel=%v/%d", sc.name, mix, seed, tel, budget),
							cfg:  cfg, mix: mix, seed: seed, budget: budget,
						})
					}
				}
			}
		}
	}
	const workers = 2
	var pooled, reused atomic.Int64
	var seen sync.Map // *cache.Hierarchy → true once a machine ran on it
	t.Run("workers", func(t *testing.T) {
		for w := 0; w < workers; w++ {
			t.Run(fmt.Sprint(w), func(t *testing.T) {
				t.Parallel()
				run := func(j job, from parts) (*CPU, Result) {
					c, err := newCPU(j.cfg, mixSources(t, j.mix, j.seed), from)
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.Run(j.budget)
					if err != nil {
						t.Fatal(err)
					}
					return c, res
				}
				var prev, prevFresh Result
				var prevMachine *CPU
				for i := w; i < len(jobs); i += workers {
					j := jobs[i]
					_, fresh := run(j, freshParts)

					c, res := run(j, pooledParts)
					pooled.Add(1)
					if _, ok := seen.LoadOrStore(c.hier, true); ok {
						reused.Add(1)
					}
					c.Release()
					if !reflect.DeepEqual(res, fresh) {
						t.Errorf("%s: a machine from the pool gives a Result that differs from a fresh machine's", j.name)
						requireIdentical(t, fresh, res)
					}

					reuse := freshParts
					if p := prevMachine; p != nil {
						var rings []*rob.Ring
						for tid := 0; tid < p.cfg.Threads; tid++ {
							rings = append(rings, p.rob.Ring(tid))
						}
						reuse = parts{
							hier: func(cache.HierConfig) (*cache.Hierarchy, error) {
								p.hier.Reset()
								return p.hier, nil
							},
							btb: func(int, int) (*predictor.BTB, error) {
								p.btb.Reset()
								return p.btb, nil
							},
							ring: func(capacity int) *rob.Ring {
								if len(rings) == 0 || rings[0].Cap() != capacity {
									return rob.NewRing(capacity)
								}
								r := rings[0]
								rings = rings[1:]
								r.Reset()
								return r
							},
						}
					}
					c, res = run(j, reuse)
					if !reflect.DeepEqual(res, fresh) {
						t.Errorf("%s: a machine reusing the previous job's parts gives a Result that differs from a fresh machine's", j.name)
						requireIdentical(t, fresh, res)
					}
					if prevMachine != nil && !reflect.DeepEqual(prev, prevFresh) {
						t.Errorf("%s: the previous job's Result changed when this job reused its machine", j.name)
					}
					prev, prevFresh, prevMachine = res, fresh, c
				}
			})
		}
	})
	// sync.Pool may drop a released machine (the race detector drops a
	// quarter of them on purpose, and a garbage collection may empty
	// the pool), so require only that the pool served a good share.
	t.Logf("%d of %d machines from New reused a released hierarchy", reused.Load(), pooled.Load())
	if reused.Load() < pooled.Load()/4 {
		t.Errorf("only %d of %d machines from New reused a released hierarchy", reused.Load(), pooled.Load())
	}
}
