package pipeline

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	for _, at := range []int64{50, 10, 30, 20, 40} {
		h.push(event{at: at, seq: uint64(at)})
	}
	prev := int64(-1)
	for h.len() > 0 {
		e := h.pop()
		if e.at < prev {
			t.Fatalf("heap order violated: %d after %d", e.at, prev)
		}
		prev = e.at
	}
}

func TestEventHeapPeek(t *testing.T) {
	var h eventHeap
	h.push(event{at: 7})
	h.push(event{at: 3})
	if h.peekAt() != 3 {
		t.Fatalf("peek = %d", h.peekAt())
	}
	if h.pop().at != 3 || h.peekAt() != 7 {
		t.Fatal("pop/peek inconsistent")
	}
}

func TestEventHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventHeap
	var want []int64
	for i := 0; i < 2000; i++ {
		at := int64(rng.Intn(10000))
		h.push(event{at: at})
		want = append(want, at)
		// Occasionally drain a few to interleave push and pop.
		if i%7 == 0 && h.len() > 3 {
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			for k := 0; k < 3; k++ {
				if got := h.pop().at; got != want[0] {
					t.Fatalf("pop %d want %d", got, want[0])
				}
				want = want[1:]
			}
		}
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	for _, w := range want {
		if got := h.pop().at; got != w {
			t.Fatalf("drain: pop %d want %d", got, w)
		}
	}
	if h.len() != 0 {
		t.Fatal("heap not empty")
	}
}

// refEventHeap is the original swap-based event heap, kept verbatim as
// the reference for the same-cycle pop order the timing model depends
// on (see eventHeap).
type refEventHeap struct {
	items []event
}

func (h *refEventHeap) push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].at <= h.items[i].at {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *refEventHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.items[l].at < h.items[smallest].at {
			smallest = l
		}
		if r < len(h.items) && h.items[r].at < h.items[smallest].at {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// TestEventHeapMatchesReference pins the pop order of equal-cycle
// events, which is part of the timing model: random push/pop sequences
// drawn from a handful of fire cycles (so nearly every comparison is a
// tie) must pop every event — identified by its unique seq — in exactly
// the reference heap's order, with the same backing-array layout.
func TestEventHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		var h eventHeap
		var ref refEventHeap
		spread := 1 + rng.Intn(6) // distinct fire cycles in play
		base := int64(0)
		var seq uint64
		for op := 0; op < 400; op++ {
			if len(ref.items) == 0 || rng.Intn(5) < 3 {
				seq++
				e := event{at: base + int64(rng.Intn(spread)), seq: seq, slot: int32(seq % 97), tid: int8(seq % 4), kind: evKind(seq % 2)}
				h.push(e)
				ref.push(e)
			} else {
				got, want := h.pop(), ref.pop()
				if got != want {
					t.Fatalf("round %d op %d: pop %+v, reference %+v", round, op, got, want)
				}
				base = got.at // later pushes never predate the clock
			}
			if !reflect.DeepEqual(h.items, ref.items) {
				t.Fatalf("round %d op %d: heap layout diverged from the reference", round, op)
			}
		}
		for len(ref.items) > 0 {
			if got, want := h.pop(), ref.pop(); got != want {
				t.Fatalf("round %d drain: pop %+v, reference %+v", round, got, want)
			}
		}
		if h.len() != 0 {
			t.Fatalf("round %d: heap holds %d events after the reference drained", round, h.len())
		}
	}
}

func TestFeQueue(t *testing.T) {
	q := newFeQueue(4)
	if q.len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	q.push(feEntry{readyAt: 1})
	q.push(feEntry{readyAt: 2})
	if q.len() != 2 || q.peek().readyAt != 1 {
		t.Fatal("peek/len wrong")
	}
	if q.pop().readyAt != 1 || q.pop().readyAt != 2 {
		t.Fatal("FIFO order broken")
	}
	if q.len() != 0 {
		t.Fatal("not empty after pops")
	}
	// Push after full drain reuses the same storage.
	q.push(feEntry{readyAt: 3})
	if q.peek().readyAt != 3 {
		t.Fatal("reuse after drain broken")
	}
	q.clear()
	if q.len() != 0 {
		t.Fatal("clear failed")
	}
}

// TestFeQueueWrapAndFull drives the ring around its end many times, at
// every fill level up to full capacity, checking FIFO order and at(i)
// against a plain slice.
func TestFeQueueWrapAndFull(t *testing.T) {
	const capacity = 5
	q := newFeQueue(capacity)
	var ref []int64
	next := int64(0)
	for round := 0; round < 4*capacity; round++ {
		// Fill to a level that cycles through 1..capacity, then drain
		// all but one entry, so the head walks round the ring.
		level := 1 + round%capacity
		for q.len() < level {
			q.push(feEntry{readyAt: next})
			ref = append(ref, next)
			next++
		}
		if q.len() != len(ref) {
			t.Fatalf("round %d: len %d, want %d", round, q.len(), len(ref))
		}
		for i, want := range ref {
			if got := q.at(i).readyAt; got != want {
				t.Fatalf("round %d: at(%d) = %d, want %d", round, i, got, want)
			}
		}
		for q.len() > 1 {
			if got := q.pop().readyAt; got != ref[0] {
				t.Fatalf("round %d: pop %d, want %d", round, got, ref[0])
			}
			ref = ref[1:]
		}
	}
	for q.len() < capacity {
		q.push(feEntry{readyAt: next})
		next++
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push into a full queue did not panic")
		}
	}()
	q.push(feEntry{})
}

func TestFeQueueAllocFree(t *testing.T) {
	q := newFeQueue(3)
	allocs := testing.AllocsPerRun(1000, func() {
		q.push(feEntry{readyAt: 1})
		q.push(feEntry{readyAt: 2})
		q.pop()
		q.pop()
	})
	if allocs != 0 {
		t.Fatalf("push/pop allocate %.1f times per run, want 0", allocs)
	}
}
