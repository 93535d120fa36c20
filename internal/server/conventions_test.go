package server

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
)

// noSweep stands in for the simulator where a test needs jobs to
// finish but not to simulate.
func noSweep(ctx context.Context, j *Job) (report.Series, int64, error) {
	return report.Series{}, 0, nil
}

// TestShutdownJoinsReplicaPush shuts a server down right after a
// submission, without waiting for the job: the job still runs, and the
// replica push it starts must have finished when Shutdown returns. The
// push sleeps first, so a spawn that Shutdown does not join is still
// running at that point.
func TestShutdownJoinsReplicaPush(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var pushed atomic.Bool
		s, err := New(testConfig(t, func(c *Config) {
			c.Replicate = func(ctx context.Context, key string, data []byte) (int, int) {
				time.Sleep(20 * time.Millisecond)
				pushed.Store(true)
				return 1, 0
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		s.simulate = noSweep
		if _, _, err := s.Submit(context.Background(), tinySpec(), true); err != nil {
			t.Fatal(err)
		}
		shutdown(t, s)
		if !pushed.Load() {
			t.Fatalf("trial %d: Shutdown returned before the replica push finished", trial)
		}
	}
}

// TestShutdownJoinsRepairPass shuts a server down right after starting
// a placement repair pass, with nothing else in flight that Shutdown
// would wait for: the pass must have finished when Shutdown returns.
func TestShutdownJoinsRepairPass(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		var repaired atomic.Bool
		s, err := New(testConfig(t, func(c *Config) { c.Logf = func(string, ...any) {} }))
		if err != nil {
			t.Fatal(err)
		}
		s.Rereplicate(func(ctx context.Context) (int, int) {
			time.Sleep(5 * time.Millisecond)
			repaired.Store(true)
			return 0, 0
		})
		shutdown(t, s)
		if !repaired.Load() {
			t.Fatalf("trial %d: Shutdown returned before the repair pass finished", trial)
		}
	}
}

// shutdown drains s, failing t if the drain does not finish in time.
func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// start runs f in a goroutine and returns a channel closed when f
// returns.
func start(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return done
}

// within runs f and fails t if f has not returned after d. The returned
// channel closes when f returns, for use once the stall f may be caught
// behind is released.
func within(t *testing.T, d time.Duration, what string, f func()) <-chan struct{} {
	t.Helper()
	done := start(f)
	select {
	case <-done:
	case <-time.After(d):
		t.Errorf("%s took longer than %v", what, d)
	}
	return done
}

// TestServerAnswersWhileStalled holds one slow path open (a peer fill,
// a replica push, a worker) and requires the server's other calls to
// answer meanwhile. A sleep, a WaitGroup.Wait or a network call made
// while holding the server's mutex stalls them behind the slow path.
func TestServerAnswersWhileStalled(t *testing.T) {
	const bound = 500 * time.Millisecond
	stats := func(s *Server) func() { return func() { s.Stats() } }
	spec := func(seed uint64) RunSpec {
		sp := tinySpec()
		sp.Seed = seed
		return sp
	}

	t.Run("peer fill", func(t *testing.T) {
		entered, release := make(chan struct{}), make(chan struct{})
		var fills atomic.Int64
		s := newTestServer(t, func(c *Config) {
			c.PeerFill = func(ctx context.Context, key string) ([]byte, bool) {
				if fills.Add(1) == 1 {
					close(entered)
					<-release
				}
				return nil, false
			}
		})
		s.simulate = noSweep
		stalled := start(func() { s.Submit(context.Background(), spec(1), true) })
		<-entered
		waits := []<-chan struct{}{
			within(t, bound, "Stats during a peer fill", stats(s)),
			within(t, bound, "another submission during a peer fill", func() { s.Submit(context.Background(), spec(2), true) }),
		}
		close(release)
		for _, w := range append(waits, stalled) {
			<-w
		}
	})

	t.Run("replica push", func(t *testing.T) {
		entered, release := make(chan struct{}), make(chan struct{})
		s := newTestServer(t, func(c *Config) {
			c.Logf = func(string, ...any) {}
			c.Replicate = func(ctx context.Context, key string, data []byte) (int, int) {
				close(entered)
				<-release
				return 1, 0
			}
		})
		s.simulate = noSweep
		j, _, err := s.Submit(context.Background(), spec(1), true)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		<-entered
		waits := []<-chan struct{}{
			within(t, bound, "Rereplicate during a replica push", func() {
				s.Rereplicate(func(ctx context.Context) (int, int) { return 0, 0 })
			}),
			within(t, bound, "Stats during a replica push", stats(s)),
		}
		close(release)
		for _, w := range waits {
			<-w
		}
	})

	t.Run("full queue", func(t *testing.T) {
		entered, release := make(chan struct{}, 2), make(chan struct{})
		s := newTestServer(t, func(c *Config) {
			c.Workers = 1
			c.QueueSize = 1
		})
		s.simulate = noSweep
		s.beforeRun = func(*Job) {
			entered <- struct{}{}
			<-release
		}
		if _, _, err := s.Submit(context.Background(), spec(1), true); err != nil {
			t.Fatal(err)
		}
		<-entered // the only worker is busy
		if _, _, err := s.Submit(context.Background(), spec(2), true); err != nil {
			t.Fatal(err)
		}
		waits := []<-chan struct{}{
			within(t, bound, "a rejected submission", func() {
				if _, _, err := s.Submit(context.Background(), spec(3), true); err != ErrQueueFull {
					t.Errorf("submission to a full queue: %v, want ErrQueueFull", err)
				}
			}),
			within(t, bound, "Stats with a full queue", stats(s)),
		}
		close(release)
		for _, w := range waits {
			<-w
		}
	})
}
