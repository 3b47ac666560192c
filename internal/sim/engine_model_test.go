package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file pins the engine's ordering contract against a reference
// model: for any workload of schedules, cancels, and checkpoint-style
// AtSeq re-arms — same-instant bursts included — the Engine must fire
// the identical event sequence as a naive pending-event slice popped by
// a linear scan for the minimum (At, Seq). The workload flows through
// the full Engine surface the simulator uses (At, After, AtSeq, Cancel,
// Step, Run, RunUntil, Reset), including callbacks that schedule while
// firing.

// orderSUT is the surface both the Engine and the model expose to the
// scripts below.
type orderSUT interface {
	Now() Time
	Fired() uint64
	Pending() int
	Step() bool
	Run()
	RunUntil(Time)
	Reset(now Time, seq, fired uint64)
	// at schedules fn and returns a function that cancels it.
	at(at Time, fn func()) (cancel func())
	atSeq(at Time, seq uint64, fn func())
}

// engineSUT adapts the Engine to orderSUT.
type engineSUT struct{ *Engine }

func (e engineSUT) at(at Time, fn func()) func() {
	ev := e.At(at, fn)
	return func() { e.Cancel(ev) }
}

func (e engineSUT) atSeq(at Time, seq uint64, fn func()) { e.AtSeq(at, seq, fn) }

// modelEvent is one pending event of the reference model.
type modelEvent struct {
	at  Time
	seq uint64
	fn  func()
}

// orderModel is the reference: an unordered slice of pending events,
// popped by a linear scan for the minimum (at, seq).
type orderModel struct {
	now        Time
	seq, fired uint64
	pending    []*modelEvent
}

func (m *orderModel) Now() Time     { return m.now }
func (m *orderModel) Fired() uint64 { return m.fired }
func (m *orderModel) Pending() int  { return len(m.pending) }

func (m *orderModel) push(ev *modelEvent) { m.pending = append(m.pending, ev) }

func (m *orderModel) at(at Time, fn func()) func() {
	ev := &modelEvent{at: at, seq: m.seq, fn: fn}
	m.seq++
	m.push(ev)
	return func() {
		if i := m.index(ev); i >= 0 {
			m.remove(i)
		}
	}
}

func (m *orderModel) atSeq(at Time, seq uint64, fn func()) {
	m.push(&modelEvent{at: at, seq: seq, fn: fn})
}

func (m *orderModel) index(ev *modelEvent) int {
	for i, p := range m.pending {
		if p == ev {
			return i
		}
	}
	return -1
}

func (m *orderModel) remove(i int) *modelEvent {
	ev := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	return ev
}

// min returns the index of the (at, seq)-minimal pending event.
func (m *orderModel) min() int {
	best := 0
	for i, p := range m.pending {
		b := m.pending[best]
		if p.at < b.at || (p.at == b.at && p.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (m *orderModel) Step() bool {
	if len(m.pending) == 0 {
		return false
	}
	ev := m.remove(m.min())
	m.now = ev.at
	m.fired++
	ev.fn()
	return true
}

func (m *orderModel) Run() {
	for m.Step() {
	}
}

func (m *orderModel) RunUntil(deadline Time) {
	for len(m.pending) > 0 && m.pending[m.min()].at <= deadline {
		m.Step()
	}
	if m.now < deadline {
		m.now = deadline
	}
}

func (m *orderModel) Reset(now Time, seq, fired uint64) {
	m.pending = nil
	m.now, m.seq, m.fired = now, seq, fired
}

// orderHarness drives one engine or model and records its firing trace.
type orderHarness struct {
	sut  orderSUT
	log  []string
	live map[int]func() // tag -> cancel, for events not yet fired
	tags []int          // tags in scheduling order, fired ones included
	next int            // next tag to assign
}

// newHarnessPair returns a harness on a fresh Engine and one on the model.
func newHarnessPair() (eng, model *orderHarness) {
	return &orderHarness{sut: engineSUT{NewEngine()}, live: map[int]func(){}},
		&orderHarness{sut: &orderModel{}, live: map[int]func(){}}
}

// schedule arms one event at the given time and returns its tag.
func (h *orderHarness) schedule(at Time) int {
	tag := h.next
	h.next++
	h.tags = append(h.tags, tag)
	h.live[tag] = h.sut.at(at, func() {
		h.log = append(h.log, fmt.Sprintf("%d@%d", tag, h.sut.Now()))
		delete(h.live, tag)
	})
	return tag
}

// cancel removes the event with the given tag if it is still pending.
func (h *orderHarness) cancel(tag int) {
	if cancel, ok := h.live[tag]; ok {
		cancel()
		delete(h.live, tag)
	}
}

// liveTags returns the still-pending tags in scheduling order.
func (h *orderHarness) liveTags() []int {
	out := h.tags[:0]
	for _, tag := range h.tags {
		if _, ok := h.live[tag]; ok {
			out = append(out, tag)
		}
	}
	h.tags = out
	return out
}

// compareState fails the test if the engine's observable counters
// diverge from the model's.
func compareState(t *testing.T, ctx string, eng, model *orderHarness) {
	t.Helper()
	e, m := eng.sut, model.sut
	if e.Now() != m.Now() || e.Fired() != m.Fired() || e.Pending() != m.Pending() {
		t.Fatalf("%s: state diverges: engine now=%v fired=%d pending=%d, model now=%v fired=%d pending=%d",
			ctx, e.Now(), e.Fired(), e.Pending(), m.Now(), m.Fired(), m.Pending())
	}
}

// compareTraces fails the test at the first divergence between the two
// firing traces.
func compareTraces(t *testing.T, ctx string, eng, model *orderHarness) {
	t.Helper()
	n := min(len(eng.log), len(model.log))
	for i := 0; i < n; i++ {
		if eng.log[i] != model.log[i] {
			t.Fatalf("%s: firing %d diverges: engine %s, model %s", ctx, i, eng.log[i], model.log[i])
		}
	}
	if len(eng.log) != len(model.log) {
		t.Fatalf("%s: engine fired %d events, model %d", ctx, len(eng.log), len(model.log))
	}
	compareState(t, ctx, eng, model)
}

// TestEngineOrderDifferential replays seeded random workloads through
// the engine and the model: schedules at mixed horizons (same-instant
// bursts through far-future timers), interleaved cancels, and
// stepped/batched dispatch, with callbacks themselves scheduling
// follow-on work.
func TestEngineOrderDifferential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, model := newHarnessPair()
		both := []*orderHarness{eng, model}

		for round := 0; round < 300; round++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // one event at a mixed horizon
				var delta Time
				switch rng.Intn(4) {
				case 0:
					delta = 0
				case 1:
					delta = Time(rng.Intn(100))
				case 2:
					delta = Time(rng.Intn(1_000_000))
				default:
					delta = Time(rng.Int63n(int64(1) << uint(20+rng.Intn(25))))
				}
				for _, h := range both {
					h.schedule(h.sut.Now() + delta)
				}
			case 3: // same-instant burst
				delta := Time(rng.Intn(50_000))
				k := 2 + rng.Intn(6)
				for _, h := range both {
					at := h.sut.Now() + delta
					for j := 0; j < k; j++ {
						h.schedule(at)
					}
				}
			case 4: // self-rescheduling event: callback schedules more
				delta := Time(rng.Intn(200_000))
				hops := 1 + rng.Intn(3)
				for _, h := range both {
					h := h
					tag := h.next
					h.next++
					var arm func(at Time, hop int)
					arm = func(at Time, hop int) {
						h.live[tag] = h.sut.at(at, func() {
							h.log = append(h.log, fmt.Sprintf("%d.%d@%d", tag, hop, h.sut.Now()))
							delete(h.live, tag)
							if hop < hops {
								arm(h.sut.Now()+delta/2+1, hop+1)
							}
						})
					}
					arm(h.sut.Now()+delta, 0)
				}
			case 5, 6: // cancel a tag at or after the oldest pending one
				if len(eng.live) == 0 {
					continue
				}
				oldest := eng.next
				for tag := range eng.live {
					oldest = min(oldest, tag)
				}
				victim := oldest + rng.Intn(eng.next-oldest)
				for _, h := range both {
					h.cancel(victim)
				}
			case 7, 8: // step a few events
				k := 1 + rng.Intn(4)
				for _, h := range both {
					for j := 0; j < k; j++ {
						h.sut.Step()
					}
				}
			default: // run to a deadline: batched same-tick dispatch
				delta := Time(rng.Intn(500_000))
				for _, h := range both {
					h.sut.RunUntil(h.sut.Now() + delta)
				}
			}
			compareState(t, fmt.Sprintf("seed %d round %d", seed, round), eng, model)
		}
		for _, h := range both {
			h.sut.Run()
		}
		compareTraces(t, fmt.Sprintf("seed %d", seed), eng, model)
	}
}

// TestEngineOrderDifferentialRestore pins the checkpoint-restore
// pattern: Reset to a forced clock and seq counter, re-arm a pending set
// through AtSeq under explicit (shuffled, same-instant-heavy) sequence
// numbers, and require the model's firing order.
func TestEngineOrderDifferentialRestore(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		eng, model := newHarnessPair()

		// A synthetic checkpoint: n pending events at few distinct instants
		// (forcing same-instant seq ordering) under shuffled original seqs.
		n := 5 + rng.Intn(60)
		base := Time(rng.Int63n(1_000_000_000))
		instants := make([]Time, 1+rng.Intn(8))
		for i := range instants {
			instants[i] = base + Time(rng.Int63n(int64(1)<<uint(10+rng.Intn(30))))
		}
		seqs := rng.Perm(n)
		type arm struct {
			at  Time
			seq uint64
		}
		arms := make([]arm, n)
		for i := range arms {
			arms[i] = arm{at: instants[rng.Intn(len(instants))], seq: uint64(seqs[i])}
		}

		for _, h := range []*orderHarness{eng, model} {
			h := h
			// Pending events from before the restore must be dropped.
			h.schedule(1)
			h.sut.Reset(base, uint64(n), 0)
			h.live = map[int]func(){}
			for _, a := range arms {
				a := a
				h.sut.atSeq(a.at, a.seq, func() {
					h.log = append(h.log, fmt.Sprintf("s%d@%d", a.seq, h.sut.Now()))
				})
			}
			h.sut.Run()
		}
		compareTraces(t, fmt.Sprintf("restore seed %d", seed), eng, model)
	}
}

// FuzzEngineOrder interprets arbitrary bytes as an op script driven
// through the engine and the model and requires identical firing
// traces. Each op is two bytes: an opcode selector and an argument.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 2, 2, 0, 0})                     // twin instants, step
	f.Add([]byte{0, 200, 1, 3, 3, 1, 2, 8})                     // far push, burst, cancel, steps
	f.Add([]byte{1, 9, 1, 9, 4, 50, 2, 40})                     // bursts, run-until, drain
	f.Add([]byte{0, 255, 0, 1, 0, 0, 3, 0, 3, 1, 2, 9, 4, 255}) // cancel-heavy
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, model := newHarnessPair()
		both := []*orderHarness{eng, model}
		for p := 0; p+1 < len(data); p += 2 {
			op, arg := data[p], int64(data[p+1])
			switch op % 5 {
			case 0: // schedule at a spread-out horizon (arg scales the span)
				for _, h := range both {
					h.schedule(h.sut.Now() + Time(arg*arg*arg))
				}
			case 1: // same-instant burst of arg%7+2 events
				for _, h := range both {
					at := h.sut.Now() + Time(arg*17)
					for j := int64(0); j < arg%7+2; j++ {
						h.schedule(at)
					}
				}
			case 2: // step up to arg%5+1 events
				for _, h := range both {
					for j := int64(0); j < arg%5+1; j++ {
						h.sut.Step()
					}
				}
			case 3: // cancel the (arg mod len)-th still-pending event
				for _, h := range both {
					if live := h.liveTags(); len(live) > 0 {
						h.cancel(live[int(arg)%len(live)])
					}
				}
			case 4: // batched dispatch to a deadline
				for _, h := range both {
					h.sut.RunUntil(h.sut.Now() + Time(arg*1000))
				}
			}
			compareState(t, fmt.Sprintf("op %d", p/2), eng, model)
		}
		for _, h := range both {
			h.sut.Run()
		}
		compareTraces(t, "final", eng, model)
	})
}
