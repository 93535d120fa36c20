package workpool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 50
			var counts [n]atomic.Int32
			if err := Run(context.Background(), workers, n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("job %d ran %d times", i, c)
				}
			}
		})
	}
}

func TestNoJobsNoCalls(t *testing.T) {
	if err := Run(context.Background(), 4, 0, func(int) error {
		t.Error("fn called with n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrencyBounded: however many jobs are queued, at most
// workers of them are ever in flight together.
func TestConcurrencyBounded(t *testing.T) {
	const workers, n = 3, 40
	var inflight, peak atomic.Int32
	err := Run(context.Background(), workers, n, func(int) error {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers || p < 1 {
		t.Fatalf("peak concurrency %d, want 1..%d", p, workers)
	}
}

// TestEveryErrorJoined: errors from jobs that were already running when
// the first one failed are all returned, not just the first.
func TestEveryErrorJoined(t *testing.T) {
	const workers = 4
	var started atomic.Int32
	all := make(chan struct{})
	errs := make([]error, workers)
	for i := range errs {
		errs[i] = fmt.Errorf("job %d failed", i)
	}
	err := Run(context.Background(), workers, 100, func(i int) error {
		// The first four jobs wait for each other, so all four are in
		// flight before any of them fails.
		if started.Add(1) == workers {
			close(all)
		}
		<-all
		return errs[i]
	})
	for _, want := range errs {
		if !errors.Is(err, want) {
			t.Errorf("joined error %v is missing %v", err, want)
		}
	}
	if n := started.Load(); n != workers {
		t.Fatalf("%d jobs started, want %d", n, workers)
	}
}

// TestNoDispatchAfterFailure: with one worker the order is exact — the
// job after the failing one never starts.
func TestNoDispatchAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := Run(context.Background(), 1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if fmt.Sprint(ran) != "[0 1 2]" {
		t.Fatalf("ran %v, want [0 1 2]", ran)
	}
}

// TestNoDispatchAfterFailureConcurrent: once a job has failed, the
// other workers finish what they hold and take nothing new. Jobs other
// than the failing one block until it has failed and then give the pool
// ample time to record the failure, so each worker starts at most one
// job before the failure and none after it.
func TestNoDispatchAfterFailureConcurrent(t *testing.T) {
	const workers, n = 4, 1000
	boom := errors.New("boom")
	failed := make(chan struct{})
	var started atomic.Int32
	err := Run(context.Background(), workers, n, func(i int) error {
		started.Add(1)
		if i == 0 {
			close(failed)
			return boom
		}
		<-failed
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if s := started.Load(); s > workers {
		t.Fatalf("%d of %d jobs started; want at most %d (those in flight at the failure)", s, n, workers)
	}
}

func TestPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Run(ctx, 4, 10, func(int) error {
		t.Error("job ran under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if first := unwrapJoined(err)[0]; first != context.Canceled {
		t.Fatalf("first joined error %v, want ctx.Err()", first)
	}
}

// TestCancelStopsDispatchAndLeadsErrors: cancelling mid-run drops the
// queued jobs, and ctx.Err() comes ahead of job errors in the result.
func TestCancelStopsDispatchAndLeadsErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	var started atomic.Int32
	err := Run(ctx, 1, 10, func(int) error {
		started.Add(1)
		cancel()
		return boom
	})
	if s := started.Load(); s != 1 {
		t.Fatalf("%d jobs started after cancel, want 1", s)
	}
	joined := unwrapJoined(err)
	if len(joined) != 2 || joined[0] != context.Canceled || joined[1] != boom {
		t.Fatalf("got %v, want [context.Canceled boom]", joined)
	}
}

func unwrapJoined(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}
