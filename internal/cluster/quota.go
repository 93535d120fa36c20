package cluster

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// Quotas is a per-tenant token-bucket rate limiter in front of the
// coordinator. Every tenant gets the same rate/burst; buckets are
// created lazily, refilled on demand from elapsed time and dropped by
// Prune once full again, so an idle tenant costs nothing.
type Quotas struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time // injectable for tests

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewQuotas builds a limiter granting rate tokens/sec with the given
// burst per tenant. rate <= 0 disables limiting (Allow always true).
func NewQuotas(rate, burst float64) *Quotas {
	if burst < 1 {
		burst = 1
	}
	return &Quotas{
		rate:    rate,
		burst:   burst,
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// Allow spends one token from tenant's bucket, reporting whether one
// was available.
func (q *Quotas) Allow(tenant string) bool {
	if q.rate <= 0 {
		return true
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, ok := q.buckets[tenant]
	if !ok {
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	if now.After(b.last) {
		b.tokens, b.last = q.refilled(b, now), now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// RetryAfter reports how long tenant must wait for the bucket to refill
// one whole token — the honest Retry-After value for a quota rejection.
// Zero when limiting is off or a token is already available.
func (q *Quotas) RetryAfter(tenant string) time.Duration {
	if q.rate <= 0 {
		return 0
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, ok := q.buckets[tenant]
	if !ok {
		return 0 // fresh bucket starts full
	}
	tokens := q.refilled(b, now)
	if tokens >= 1 {
		return 0
	}
	return time.Duration((1 - tokens) / q.rate * float64(time.Second))
}

// Prune drops every bucket that has refilled to burst: a fresh bucket
// starts full, so later answers are unchanged. Tenant names are client
// input, so without this every tenant ever seen keeps a bucket.
func (q *Quotas) Prune() {
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	for tenant, b := range q.buckets {
		if q.refilled(b, now) >= q.burst {
			delete(q.buckets, tenant)
		}
	}
}

// refilled returns b's token count at now: its stored tokens plus the
// refill since b.last, capped at burst. Callers hold q.mu.
func (q *Quotas) refilled(b *bucket, now time.Time) float64 {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		return min(b.tokens+dt*q.rate, q.burst)
	}
	return b.tokens
}

// waiter is one queued Acquire, tagged with its virtual finish time.
type waiter struct {
	finish    float64
	grant     chan struct{}
	granted   bool
	cancelled bool
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].finish < h[j].finish }
func (h waiterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)        { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// FairQueue bounds the coordinator's concurrent forwards at slots and,
// when oversubscribed, dequeues waiting tenants in fair order
// (equal-share virtual-time WFQ: each queued request advances its
// tenant's virtual time by 1, and the globally smallest finish tag runs
// next). A tenant hammering the coordinator therefore queues behind
// itself, not behind everyone else.
type FairQueue struct {
	slots int

	mu       sync.Mutex
	inflight int
	vtime    float64
	finishes map[string]float64 // per-tenant last finish tag, until Prune
	waiting  waiterHeap
}

// NewFairQueue builds a queue admitting slots concurrent holders.
func NewFairQueue(slots int) *FairQueue {
	if slots <= 0 {
		slots = 64
	}
	return &FairQueue{
		slots:    slots,
		finishes: make(map[string]float64),
	}
}

// Acquire blocks until the caller holds a slot or ctx is done. On
// success the caller must Release exactly once.
func (f *FairQueue) Acquire(ctx context.Context, tenant string) error {
	f.mu.Lock()
	if f.inflight < f.slots && len(f.waiting) == 0 {
		f.inflight++
		f.mu.Unlock()
		return nil
	}
	w := &waiter{finish: f.finishTag(tenant), grant: make(chan struct{})}
	heap.Push(&f.waiting, w)
	f.mu.Unlock()

	select {
	case <-w.grant:
		return nil
	case <-ctx.Done():
		f.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed while we were leaving.
			// Hand the slot straight back.
			f.mu.Unlock()
			f.Release()
			return ctx.Err()
		}
		w.cancelled = true
		f.mu.Unlock()
		return ctx.Err()
	}
}

// finishTag computes the waiter's virtual finish time. Callers hold
// f.mu.
func (f *FairQueue) finishTag(tenant string) float64 {
	start := f.vtime
	if last := f.finishes[tenant]; last > start {
		start = last
	}
	finish := start + 1
	f.finishes[tenant] = finish
	return finish
}

// Release returns a slot and grants it to the fairest waiter.
func (f *FairQueue) Release() {
	f.mu.Lock()
	f.inflight--
	for f.inflight < f.slots && len(f.waiting) > 0 {
		w := heap.Pop(&f.waiting).(*waiter)
		if w.cancelled {
			continue
		}
		w.granted = true
		f.inflight++
		if w.finish > f.vtime {
			f.vtime = w.finish
		}
		close(w.grant)
	}
	f.mu.Unlock()
}

// Prune drops the finish tags vtime has reached. For such a tenant
// max(vtime, tag) is vtime, exactly what a missing entry yields, so
// every later Acquire is tagged as it would have been.
func (f *FairQueue) Prune() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for tenant, tag := range f.finishes {
		if tag <= f.vtime {
			delete(f.finishes, tenant)
		}
	}
}

// Depth returns the number of queued (not yet granted) acquires.
func (f *FairQueue) Depth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiting)
}
