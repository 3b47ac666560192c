package fairqueue

import (
	"math"

	"hsfq/internal/sim"
)

// gps simulates the hypothetical bit-by-bit weighted round-robin reference
// system that defines WFQ's virtual time v(t) (§6, Eq. 12):
//
//	dv/dt = C / sum_{j in B(t)} w_j
//
// where C is the *assumed, constant* capacity and B(t) the set of flows
// backlogged in the reference system. This is the crucial flaw the paper
// exploits: the reference system's clock keeps advancing at capacity C
// even when the real server is slower (interrupts, a parent class giving
// the node less bandwidth), so tags drift from reality and fairness is
// lost under fluctuation. SFQ needs no such reference and is immune.
type gps struct {
	capacity float64
	v        float64
	lastReal float64 // seconds
	flowF    []float64
	weights  []float64
}

func newGPS(capacity float64, weights []float64) *gps {
	return &gps{capacity: capacity, weights: weights, flowF: make([]float64, len(weights))}
}

// advance brings v up to real time t, processing reference-system
// departures (flows whose backlog drains) along the way. A flow is
// backlogged in the reference system exactly while its last finish tag
// exceeds v; the scan per step is O(flows), fine for the small flow
// counts fair queuing is used with.
func (g *gps) advance(t sim.Time) {
	now := t.Seconds()
	for g.lastReal < now {
		sumW := 0.0
		next := math.Inf(1)
		for i, f := range g.flowF {
			if f > g.v {
				sumW += g.weights[i]
				if f < next {
					next = f
				}
			}
		}
		if sumW == 0 {
			// Reference system idle: its clock freezes until an arrival.
			break
		}
		rate := g.capacity / sumW
		reach := g.v + (now-g.lastReal)*rate
		if reach < next {
			g.v = reach
			break
		}
		// One or more reference flows drain at virtual time next; real
		// time advances to that instant and the round rate changes.
		g.lastReal += (next - g.v) / rate
		g.v = next
	}
	g.lastReal = now
}

// arrive registers a packet arrival in the reference system and returns
// its start and finish tags.
func (g *gps) arrive(flow int, size float64, t sim.Time) (start, finish float64) {
	g.advance(t)
	start = g.v
	if f := g.flowF[flow]; f > start {
		start = f
	}
	finish = start + size/g.weights[flow]
	g.flowF[flow] = finish
	return start, finish
}

// WFQ is Weighted Fair Queuing [3]: tags from the GPS reference system,
// service in finish-tag order. It needs packet sizes at arrival (the
// paper's first objection for CPU scheduling) and its reference clock
// assumes constant capacity (the second).
type WFQ struct {
	flowQueues
	weights []float64
	ref     *gps
}

// NewWFQ returns a packet WFQ over flows with the given weights, assuming
// server capacity is the constant capacity (work/second).
func NewWFQ(capacity float64, weights []float64) *WFQ {
	checkWeights(weights)
	return &WFQ{
		flowQueues: newFlowQueues(len(weights), true),
		weights:    weights,
		ref:        newGPS(capacity, weights),
	}
}

// Name implements Algorithm.
func (w *WFQ) Name() string { return "wfq" }

// Arrive implements Algorithm.
func (w *WFQ) Arrive(p *Packet, now sim.Time) {
	checkPacket(w.weights, p)
	p.Start, p.Finish = w.ref.arrive(p.Flow, float64(p.Size), now)
	w.push(p)
}

// Dequeue implements Algorithm.
func (w *WFQ) Dequeue(now sim.Time) *Packet { return w.pop() }

// Complete implements Algorithm.
func (w *WFQ) Complete(p *Packet, now sim.Time) {}

// FQS is Fair Queuing based on Start-time [7]: WFQ's tags, but service in
// start-tag order, which removes the need to know packet sizes at
// scheduling time. It still inherits the constant-capacity reference
// clock, so — as §6 notes — "it does not provide fairness when the
// available CPU bandwidth fluctuates over time".
type FQS struct {
	flowQueues
	weights []float64
	ref     *gps
}

// NewFQS returns a packet FQS over flows with the given weights.
func NewFQS(capacity float64, weights []float64) *FQS {
	checkWeights(weights)
	return &FQS{
		flowQueues: newFlowQueues(len(weights), false),
		weights:    weights,
		ref:        newGPS(capacity, weights),
	}
}

// Name implements Algorithm.
func (f *FQS) Name() string { return "fqs" }

// Arrive implements Algorithm.
func (f *FQS) Arrive(p *Packet, now sim.Time) {
	checkPacket(f.weights, p)
	p.Start, p.Finish = f.ref.arrive(p.Flow, float64(p.Size), now)
	f.push(p)
}

// Dequeue implements Algorithm.
func (f *FQS) Dequeue(now sim.Time) *Packet { return f.pop() }

// Complete implements Algorithm.
func (f *FQS) Complete(p *Packet, now sim.Time) {}
