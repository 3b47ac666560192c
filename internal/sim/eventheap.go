package sim

// eventHeap is the engine's pending-event queue: a binary min-heap on
// (At, seq), specialised to *Event. It is the generic Heap's algorithm
// written out for one type, so the comparison inlines (heap.go says why
// Heap[*Event] cannot), and a moving event is carried in a hole rather
// than swapped, so each level of a sift writes one slot and one idx.
//
// Since (At, seq) is a strict total order, the arrangement after any
// operation is the one the generic Heap (and container/heap) would reach,
// and the pop sequence is fully determined by the schedule calls.
type eventHeap struct {
	items []*Event
}

// eventLess orders events by time, then FIFO by sequence number.
func eventLess(a, b *Event) bool {
	return a.At < b.At || (a.At == b.At && a.seq < b.seq)
}

func (h *eventHeap) Len() int { return len(h.items) }

// Min returns the earliest event; the heap must be non-empty.
func (h *eventHeap) Min() *Event { return h.items[0] }

// Push queues ev.
func (h *eventHeap) Push(ev *Event) {
	h.items = append(h.items, ev)
	h.up(ev, len(h.items)-1)
}

// Pop removes and returns the earliest event, marking it detached.
func (h *eventHeap) Pop() *Event {
	ev := h.items[0]
	if last := h.shrink(); len(h.items) > 0 {
		h.down(last, 0)
	}
	ev.idx = -1
	return ev
}

// Remove detaches the queued event ev.
func (h *eventHeap) Remove(ev *Event) {
	i := ev.idx
	if last := h.shrink(); i < len(h.items) {
		if h.down(last, i) == i {
			h.up(last, i)
		}
	}
	ev.idx = -1
}

// shrink drops the last slot and returns the event it held, which the
// caller re-places into the hole its removal opened.
func (h *eventHeap) shrink() *Event {
	n := len(h.items) - 1
	last := h.items[n]
	h.items[n] = nil // the pool may outlive the queued reference
	h.items = h.items[:n]
	return last
}

// up places ev into the hole at i, moving it toward the root past every
// later parent.
func (h *eventHeap) up(ev *Event, i int) {
	for i > 0 {
		p := (i - 1) / 2
		parent := h.items[p]
		if !eventLess(ev, parent) {
			break
		}
		h.items[i] = parent
		parent.idx = i
		i = p
	}
	h.items[i] = ev
	ev.idx = i
}

// down places ev into the hole at i, moving it toward the leaves past
// every earlier child, and returns its final position.
func (h *eventHeap) down(ev *Event, i int) int {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		child := h.items[c]
		if r := c + 1; r < n && eventLess(h.items[r], child) {
			c, child = r, h.items[r]
		}
		if !eventLess(child, ev) {
			break
		}
		h.items[i] = child
		child.idx = i
		i = c
	}
	h.items[i] = ev
	ev.idx = i
	return i
}
