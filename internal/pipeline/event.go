package pipeline

// evKind distinguishes scheduled pipeline events.
type evKind uint8

const (
	evComplete   evKind = iota // instruction finishes executing
	evMissDetect               // L2 miss discovered for an issued load
)

// event is a scheduled future action on an in-flight uop, validated at
// fire time by (slot, seq) so events for squashed entries are dropped.
type event struct {
	at   int64
	seq  uint64
	slot int32
	tid  int8
	kind evKind
}

// eventHeap is a binary min-heap on the fire cycle. Hand-rolled to avoid
// interface boxing in the per-cycle hot path.
//
// The pop order of events that share a fire cycle is part of the timing
// model: writeback handles them in that order, so it decides which
// completion wakes its consumers, frees its resources or squashes first.
// The order falls out of this exact sift discipline — `<=` stops a
// sift-up, a child must be strictly earlier to sift down, and the left
// child wins a tie between children. Breaking ties any other way (an
// explicit (at, kind, seq) key, a d-ary heap, a timing wheel) changes
// simulated results, so any such change is a model change.
// TestEventHeapMatchesReference pins the order against the original
// swap-based heap.
type eventHeap struct {
	items []event
}

func (h *eventHeap) len() int { return len(h.items) }

// push sifts a hole up from the new leaf, shifting later parents down,
// and writes e once where the hole stops.
func (h *eventHeap) push(e event) {
	h.items = append(h.items, e)
	items := h.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if items[parent].at <= e.at {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = e
}

// peekAt returns the earliest fire cycle; callers must check len first.
func (h *eventHeap) peekAt() int64 { return h.items[0].at }

// pop removes the root and sifts a hole down from it, shifting strictly
// earlier children up, and writes the former last element once where the
// hole stops.
func (h *eventHeap) pop() event {
	items := h.items
	top := items[0]
	last := len(items) - 1
	e := items[last]
	items = items[:last]
	h.items = items
	n := len(items)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && items[r].at < items[c].at {
			c = r
		}
		if items[c].at >= e.at {
			break
		}
		items[i] = items[c]
		i = c
	}
	if n > 0 { // else e was the root itself
		items[i] = e
	}
	return top
}
