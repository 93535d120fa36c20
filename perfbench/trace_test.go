package main

import (
	"context"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	sp := func(a, b int) span { return span{start: time.Duration(a), end: time.Duration(b)} }
	parent := sp(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child inside", []span{sp(10, 40)}, 70},
		{"disjoint children", []span{sp(10, 20), sp(50, 80)}, 60},
		{"overlapping children count once", []span{sp(10, 50), sp(30, 70)}, 40},
		{"nested child", []span{sp(10, 90), sp(20, 30)}, 20},
		{"child past the parent's end is clipped", []span{sp(90, 150)}, 90},
		{"child before the parent is ignored", []span{sp(-50, -10)}, 100},
		{"unsorted children", []span{sp(60, 70), sp(0, 10), sp(5, 20)}, 70},
		{"children covering everything", []span{sp(0, 60), sp(50, 100)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTracerRecordsAndNilTracerIsFree(t *testing.T) {
	var none *tracer
	none.begin("x", 1)() // must not panic or record

	tr := newTracer()
	end := tr.begin("forward", 7)
	end()
	tr.begin("coord", 7)()
	got := tr.byName("forward")
	if len(got) != 1 || got[0].req != 7 || got[0].end < got[0].start {
		t.Fatalf("byName(forward) = %+v", got)
	}
	if reqOf(withReq(context.Background(), 42)) != 42 || reqOf(context.Background()) != 0 {
		t.Error("request ID does not round-trip through a context")
	}
}
