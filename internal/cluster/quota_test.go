package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestQuotasBurstAndRefill(t *testing.T) {
	q := NewQuotas(10, 2) // 10 tokens/sec, burst 2
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	if !q.Allow("t1") || !q.Allow("t1") {
		t.Fatal("burst of 2 not honored")
	}
	if q.Allow("t1") {
		t.Fatal("third immediate request allowed")
	}
	// Tenants are isolated.
	if !q.Allow("t2") {
		t.Fatal("fresh tenant rejected")
	}
	// 100ms later one token (10/sec) has refilled.
	now = now.Add(100 * time.Millisecond)
	if !q.Allow("t1") {
		t.Fatal("refilled token not granted")
	}
	if q.Allow("t1") {
		t.Fatal("over-refilled")
	}
	// Refill caps at burst.
	now = now.Add(time.Hour)
	if !q.Allow("t1") || !q.Allow("t1") || q.Allow("t1") {
		t.Fatal("burst cap not applied after idle period")
	}
}

func TestQuotasRetryAfter(t *testing.T) {
	q := NewQuotas(2, 1) // 2 tokens/sec, burst 1
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	// An unseen tenant has a full bucket: no wait.
	if got := q.RetryAfter("fresh"); got != 0 {
		t.Fatalf("fresh tenant RetryAfter = %v", got)
	}
	if !q.Allow("t") || q.Allow("t") {
		t.Fatal("burst of 1 not honored")
	}
	// The bucket is empty; at 2 tokens/sec a whole token is 500ms away.
	if got := q.RetryAfter("t"); !within(got, 500*time.Millisecond, time.Millisecond) {
		t.Fatalf("RetryAfter = %v, want ~500ms", got)
	}
	// 200ms later 0.4 tokens refilled: 300ms left.
	now = now.Add(200 * time.Millisecond)
	if got := q.RetryAfter("t"); !within(got, 300*time.Millisecond, time.Millisecond) {
		t.Fatalf("RetryAfter after partial refill = %v, want ~300ms", got)
	}
	// Once a token is back the wait is zero, and Allow agrees.
	now = now.Add(300 * time.Millisecond)
	if got := q.RetryAfter("t"); got != 0 {
		t.Fatalf("RetryAfter with a full token = %v", got)
	}
	if !q.Allow("t") {
		t.Fatal("Allow disagrees with RetryAfter")
	}

	// Disabled limiter never asks anyone to wait.
	if got := NewQuotas(0, 0).RetryAfter("x"); got != 0 {
		t.Fatalf("disabled RetryAfter = %v", got)
	}
}

func within(got, want, tol time.Duration) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// TestRetryAfterSecondsRounding pins the header rendering: ceil to whole
// seconds with a floor of 1.
func TestRetryAfterSecondsRounding(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{10 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"},
		{2500 * time.Millisecond, "3"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Fatalf("retryAfterSeconds(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestQuotasDisabled(t *testing.T) {
	q := NewQuotas(0, 0)
	for i := 0; i < 1000; i++ {
		if !q.Allow("anyone") {
			t.Fatal("disabled limiter rejected a request")
		}
	}
}

// grabSlot acquires and returns a release func.
func grabSlot(t *testing.T, f *FairQueue, tenant string) func() {
	t.Helper()
	if err := f.Acquire(context.Background(), tenant); err != nil {
		t.Fatal(err)
	}
	return f.Release
}

// queueAcquire starts an Acquire in a goroutine and waits until it is
// enqueued, so test enqueue order is deterministic.
func queueAcquire(t *testing.T, f *FairQueue, tenant string, order *[]string, mu *sync.Mutex, wg *sync.WaitGroup) {
	t.Helper()
	depth := f.Depth()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := f.Acquire(context.Background(), tenant); err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		*order = append(*order, tenant)
		mu.Unlock()
		f.Release()
	}()
	for i := 0; i < 1000 && f.Depth() == depth; i++ {
		time.Sleep(time.Millisecond)
	}
	if f.Depth() == depth {
		t.Fatalf("acquire for %s never queued", tenant)
	}
}

func TestFairQueueInterleavesTenants(t *testing.T) {
	f := NewFairQueue(1)
	release := grabSlot(t, f, "holder")

	var (
		order []string
		mu    sync.Mutex
		wg    sync.WaitGroup
	)
	// Tenant A floods three requests, then B queues one. Without
	// fairness B would wait behind all of A; with WFQ its finish tag
	// (1) beats A's second (2) and third (3).
	queueAcquire(t, f, "A", &order, &mu, &wg)
	queueAcquire(t, f, "A", &order, &mu, &wg)
	queueAcquire(t, f, "A", &order, &mu, &wg)
	queueAcquire(t, f, "B", &order, &mu, &wg)

	release()
	wg.Wait()
	if len(order) != 4 {
		t.Fatalf("order %v", order)
	}
	pos := map[string][]int{}
	for i, tn := range order {
		pos[tn] = append(pos[tn], i)
	}
	if b := pos["B"][0]; b > 1 {
		t.Fatalf("B dequeued at position %d behind A's flood: %v", b, order)
	}
}

func TestFairQueueCancelledWaiterSkipped(t *testing.T) {
	f := NewFairQueue(1)
	release := grabSlot(t, f, "holder")

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- f.Acquire(ctx, "quitter") }()
	for i := 0; i < 1000 && f.Depth() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("cancelled acquire returned %v", err)
	}

	// The cancelled waiter must not absorb the next grant.
	var wg sync.WaitGroup
	var got bool
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := f.Acquire(context.Background(), "live"); err != nil {
			errCh <- err
			return
		}
		mu.Lock()
		got = true
		mu.Unlock()
		f.Release()
	}()
	release()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if !got {
		t.Fatal("live waiter never granted")
	}
}

// TestQuotasPruneRotatingTenants: tenant names are client input, so a
// stream of distinct tenants must not leave a bucket each behind once
// their buckets have refilled.
func TestQuotasPruneRotatingTenants(t *testing.T) {
	q := NewQuotas(10, 2)
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }
	for i := 0; i < 10_000; i++ {
		if !q.Allow(fmt.Sprintf("tenant-%d", i)) {
			t.Fatalf("fresh tenant %d rejected", i)
		}
	}
	// 50ms refills half a token: every bucket is still short of burst.
	now = now.Add(50 * time.Millisecond)
	q.Prune()
	if n := len(q.buckets); n != 10_000 {
		t.Fatalf("pruned buckets still short of burst: %d left, want 10000", n)
	}
	now = now.Add(50 * time.Millisecond)
	q.Prune()
	if n := len(q.buckets); n != 0 {
		t.Fatalf("%d refilled buckets left after Prune", n)
	}
}

// TestQuotasPruneIsInvisible: a random Allow/RetryAfter sequence gets
// identical answers from a limiter pruned at random points and one that
// is never pruned.
func TestQuotasPruneIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	pruned, kept := NewQuotas(4, 3), NewQuotas(4, 3)
	pruned.now, kept.now = clock, clock
	dropped := false
	for i := 0; i < 20_000; i++ {
		tenant := fmt.Sprintf("t%d", rng.Intn(6))
		switch op := rng.Intn(10); {
		case op < 5:
			if a, b := pruned.Allow(tenant), kept.Allow(tenant); a != b {
				t.Fatalf("op %d: Allow(%s) = %v pruned, %v kept", i, tenant, a, b)
			}
		case op < 7:
			if a, b := pruned.RetryAfter(tenant), kept.RetryAfter(tenant); a != b {
				t.Fatalf("op %d: RetryAfter(%s) = %v pruned, %v kept", i, tenant, a, b)
			}
		case op < 9:
			now = now.Add(time.Duration(rng.Intn(400)) * time.Millisecond)
		default:
			pruned.Prune()
			dropped = dropped || len(pruned.buckets) < len(kept.buckets)
		}
	}
	if !dropped {
		t.Fatal("Prune never dropped a bucket")
	}
}

// TestFairQueuePruneRotatingTenants: 10k distinct tenants queue through
// a contended FairQueue in rounds; once each round drains, Prune leaves
// no finish tags behind.
func TestFairQueuePruneRotatingTenants(t *testing.T) {
	f := NewFairQueue(1)
	for round := 0; round < 100; round++ {
		release := grabSlot(t, f, "holder")
		var wg sync.WaitGroup
		for i := 0; i < 100; i++ {
			tenant := fmt.Sprintf("tenant-%d-%d", round, i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f.Acquire(context.Background(), tenant); err != nil {
					t.Error(err)
					return
				}
				f.Release()
			}()
		}
		waitFor(t, "100 queued acquires", func() bool { return f.Depth() == 100 })
		release()
		wg.Wait()
		f.Prune()
		f.mu.Lock()
		n := len(f.finishes)
		f.mu.Unlock()
		if n != 0 {
			t.Fatalf("round %d: %d finish tags left after the queue drained", round, n)
		}
	}
}

// fairStepper drives a FairQueue one operation at a time from the test
// goroutine. The slot stays held throughout, so every acquire queues
// and every release hands the slot to exactly one live waiter.
type fairStepper struct {
	f       *FairQueue
	granted chan int
	live    []int // ids of queued, uncancelled waiters, oldest first
	cancel  map[int]context.CancelFunc
	done    map[int]chan struct{}
}

func newFairStepper(t *testing.T) *fairStepper {
	s := &fairStepper{f: NewFairQueue(1), granted: make(chan int, 1), cancel: map[int]context.CancelFunc{}, done: map[int]chan struct{}{}}
	grabSlot(t, s.f, "holder")
	return s
}

// acquire queues waiter id for tenant and returns its finish tag.
func (s *fairStepper) acquire(t *testing.T, id int, tenant string) float64 {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	s.cancel[id], s.done[id] = cancel, done
	depth := s.f.Depth()
	go func() {
		defer close(done)
		if s.f.Acquire(ctx, tenant) == nil {
			s.granted <- id
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); s.f.Depth() == depth; time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("acquire %d never queued", id)
		}
	}
	s.live = append(s.live, id)
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	return s.f.finishes[tenant]
}

// drop cancels the i-th live waiter and waits for its Acquire to return.
func (s *fairStepper) drop(i int) {
	id := s.live[i]
	s.live = append(s.live[:i], s.live[i+1:]...)
	s.cancel[id]()
	<-s.done[id]
}

// release passes the slot on and returns the id of the waiter granted.
func (s *fairStepper) release() int {
	s.f.Release()
	id := <-s.granted
	<-s.done[id]
	for i, l := range s.live {
		if l == id {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	return id
}

func (s *fairStepper) close() {
	for len(s.live) > 0 {
		s.drop(0)
	}
	s.f.Release()
}

// TestFairQueuePruneIsInvisible: a random acquire/cancel/release
// sequence gets identical finish tags and grant order from a queue
// pruned at random points and one that is never pruned.
func TestFairQueuePruneIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pruned, kept := newFairStepper(t), newFairStepper(t)
	defer pruned.close()
	defer kept.close()
	dropped := false
	for id := 0; id < 400; id++ {
		switch op := rng.Intn(10); {
		case op < 5:
			tenant := fmt.Sprintf("t%d", rng.Intn(5))
			if a, b := pruned.acquire(t, id, tenant), kept.acquire(t, id, tenant); a != b {
				t.Fatalf("op %d: %s tagged %v pruned, %v kept", id, tenant, a, b)
			}
		case op < 6 && len(kept.live) > 0:
			i := rng.Intn(len(kept.live))
			pruned.drop(i)
			kept.drop(i)
		case op < 9 && len(kept.live) > 0:
			if a, b := pruned.release(), kept.release(); a != b {
				t.Fatalf("op %d: granted waiter %d pruned, %d kept", id, a, b)
			}
		default:
			pruned.f.Prune()
			pruned.f.mu.Lock()
			kept.f.mu.Lock()
			dropped = dropped || len(pruned.f.finishes) < len(kept.f.finishes)
			kept.f.mu.Unlock()
			pruned.f.mu.Unlock()
		}
	}
	if !dropped {
		t.Fatal("Prune never dropped a finish tag")
	}
}

func TestLatencyTrackerQuantiles(t *testing.T) {
	l := newLatencyTracker(128)
	if l.Quantile(0.95) != 0 {
		t.Fatal("empty tracker should report 0")
	}
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := l.Quantile(0.50); got < 45*time.Millisecond || got > 55*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := l.Quantile(0.99); got < 95*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	// The window slides: after 128 more fast observations the old slow
	// tail is gone.
	for i := 0; i < 128; i++ {
		l.Observe(time.Millisecond)
	}
	if got := l.Quantile(0.99); got != time.Millisecond {
		t.Fatalf("p99 after window slide = %v", got)
	}

	// The incrementally sorted window answers as sorting a copy of the
	// ring would, through duplicates and wraparound, and neither call
	// allocates.
	const size = 512
	l = newLatencyTracker(size)
	var all []time.Duration
	want := func(q float64) time.Duration {
		snap := slices.Clone(all[max(0, len(all)-size):])
		slices.Sort(snap)
		return snap[int(q*float64(len(snap)-1))]
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Intn(300)) * time.Microsecond // few values: many duplicates
		l.Observe(d)
		all = append(all, d)
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			if got := l.Quantile(q); got != want(q) {
				t.Fatalf("after %d observations: Quantile(%v) = %v, want %v", i+1, q, got, want(q))
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { l.Quantile(0.95) }); n != 0 {
		t.Fatalf("Quantile allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.Observe(time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}
