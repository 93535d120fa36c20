package pipeline

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/rob"
	"repro/internal/telemetry"
)

// TestReusedMachineMatchesFresh: a machine built on a reused memory
// hierarchy runs bit-identically to one built fresh, across mixes,
// schemes, seeds, telemetry and budgets, and a Result stays unchanged
// after the next run reuses its machine. Two workers share the pool,
// each running its half of the matrix in order. Every job runs three
// times: on a fresh machine (the reference), on one from New that is
// then released to the pool, and on one forced to reuse the hierarchy
// of the worker's previous job, since sync.Pool may drop what it holds.
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
				run := func(j job, hier func(cache.HierConfig) (*cache.Hierarchy, error)) (*CPU, Result) {
					c, err := newCPU(j.cfg, mixSources(t, j.mix, j.seed), hier)
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
				var prevHier *cache.Hierarchy
				for i := w; i < len(jobs); i += workers {
					j := jobs[i]
					_, fresh := run(j, cache.NewHierarchy)

					c, res := run(j, takeHierarchy)
					pooled.Add(1)
					if _, ok := seen.LoadOrStore(c.hier, true); ok {
						reused.Add(1)
					}
					c.Release()
					if !reflect.DeepEqual(res, fresh) {
						t.Errorf("%s: a machine from the pool gives a Result that differs from a fresh machine's", j.name)
						requireIdentical(t, fresh, res)
					}

					reuse := cache.NewHierarchy
					if prevHier != nil {
						reuse = func(cache.HierConfig) (*cache.Hierarchy, error) {
							prevHier.Reset()
							return prevHier, nil
						}
					}
					c, res = run(j, reuse)
					if !reflect.DeepEqual(res, fresh) {
						t.Errorf("%s: a machine reusing the previous job's hierarchy gives a Result that differs from a fresh machine's", j.name)
						requireIdentical(t, fresh, res)
					}
					if prevHier != nil && !reflect.DeepEqual(prev, prevFresh) {
						t.Errorf("%s: the previous job's Result changed when this job reused its machine", j.name)
					}
					prev, prevFresh, prevHier = res, fresh, c.hier
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
