// Package workpool runs independent simulations on a bounded set of
// goroutines. It is the one worker pool behind the experiment runner's
// sweeps and tlrob.SingleIPCs.
package workpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Run calls fn(0..n-1) on at most workers goroutines (fewer than one
// means one) and returns once every started call has returned. Jobs are
// claimed in index order. No job starts once a call has failed or ctx
// is cancelled: running jobs finish, the rest are dropped. Every error
// is returned joined, so a failing sweep reports all broken
// configurations rather than an arbitrary first one, with ctx.Err()
// ahead of them when the context was cancelled.
//
// fn must be safe for concurrent use; a job that writes only its own
// index of a preallocated slice needs no locking.
func Run(ctx context.Context, workers, n int, fn func(i int) error) error {
	workers = max(min(workers, n), 1)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		errs   []error
		next   atomic.Int64
		failed atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append([]error{err}, errs...)
	}
	return errors.Join(errs...)
}
