package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// benchmark request share req; req 0 means the call belongs to no
// request (background work such as replica pushes).
type span struct {
	name       string
	req        uint64
	start, end time.Duration // since the tracer's origin
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory; they are summarised when the run ends,
// so recording costs one lock and one append.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin starts a span; calling the returned function ends and records
// it. A nil tracer records nothing, so untraced wiring stays free.
func (t *tracer) begin(name string, req uint64) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.origin)
	return func() {
		s := span{name: name, req: req, start: start, end: time.Since(t.origin)}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is parent's duration minus the part of it that children
// cover. Overlapping children (a hedged forward beside the original)
// count once, and any part of a child outside parent is ignored.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			covered += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// reqKey carries a benchmark request's ID through a request context,
// from the coordinator's handler into its forwarding client and from a
// worker's handler into its peer-fill call.
type reqKey struct{}

func withReq(ctx context.Context, req uint64) context.Context {
	return context.WithValue(ctx, reqKey{}, req)
}

func reqOf(ctx context.Context) uint64 {
	req, _ := ctx.Value(reqKey{}).(uint64)
	return req
}

// durationsMs converts spans to their durations in milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
