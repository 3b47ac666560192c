// Package fairqueue implements packet-level fair queuing algorithms over
// flows — SFQ, WFQ, SCFQ, and FQS — together with a server whose service
// rate fluctuates over time. It exists for two purposes:
//
//   - The related-work ablations (DESIGN.md A1/A2): the paper argues SFQ
//     is the right intermediate-node scheduler because, unlike WFQ and
//     FQS, its fairness holds when available bandwidth fluctuates, and its
//     delay to low-throughput flows beats WFQ's. These claims are packet
//     scheduling results from [6]; this package reproduces them directly.
//
//   - Cross-checks: packet SFQ and the CPU-scheduler SFQ in internal/sched
//     must produce identical schedules for identical inputs.
//
// The units mirror the rest of the repository: packet sizes are work
// (instructions), rates are work per second.
//
// Queued packets sit in one FIFO per flow, not in one priority queue.
// All four algorithms stamp a flow's packets with tags that never
// decrease — S = max(v, F_prev) >= F_prev and F = S + size/w >= S, exact
// in IEEE arithmetic for size >= 0 and w > 0 — and break ties by arrival
// order, so the packet to serve next is always at the head of some flow.
// An arrival appends to its flow in O(1) without allocating; a dequeue
// scans the flow heads, O(flows). Fair queuing runs over a handful of
// flows and up to 10^5 backlogged packets (the A2 ablation), where a
// packet heap's O(log packets) sift would dominate the run. Constructors
// reject weights that are not positive and Arrive rejects negative sizes,
// the inputs that would break the ordering; the queue itself panics if a
// flow's tags ever go backwards.
package fairqueue

import (
	"fmt"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Packet is one service request from a flow.
type Packet struct {
	Flow   int
	Size   sched.Work
	Arrive sim.Time

	// Outputs, filled by the algorithm and server. Every Server.Run
	// restamps all of them, so one packet set can be served by several
	// algorithms in turn.
	Start    float64  // start tag (SFQ/FQS/WFQ)
	Finish   float64  // finish tag
	Began    sim.Time // service start in the real server
	Departed sim.Time // service completion in the real server

	seq  int     // arrival order within the algorithm, the tie-break
	next *Packet // next queued packet of the same flow
}

// Algorithm is a work-conserving packet scheduler over a fixed set of
// weighted flows.
type Algorithm interface {
	// Name identifies the algorithm.
	Name() string
	// Arrive stamps and enqueues a packet at time now.
	Arrive(p *Packet, now sim.Time)
	// Dequeue removes and returns the next packet to serve, or nil.
	// begun tells the algorithm service starts now (for virtual time).
	Dequeue(now sim.Time) *Packet
	// Complete informs the algorithm the packet's service finished.
	Complete(p *Packet, now sim.Time)
	// Backlogged returns the number of queued packets.
	Backlogged() int
}

// flowQueues holds the queued packets of one algorithm as a FIFO per
// flow, linked through Packet.next, ordered by a tag then arrival. The
// tag is selected by byFinish (start tags for SFQ/FQS, finish tags for
// SCFQ/WFQ). Each flow's FIFO is sorted (see the package doc), so the
// least packet is the least flow head.
type flowQueues struct {
	head, tail []*Packet
	n          int
	seq        int
	byFinish   bool
}

func newFlowQueues(flows int, byFinish bool) flowQueues {
	return flowQueues{
		head:     make([]*Packet, flows),
		tail:     make([]*Packet, flows),
		byFinish: byFinish,
	}
}

func (q *flowQueues) key(p *Packet) float64 {
	if q.byFinish {
		return p.Finish
	}
	return p.Start
}

func (q *flowQueues) less(a, b *Packet) bool {
	ka, kb := q.key(a), q.key(b)
	if ka != kb {
		return ka < kb
	}
	return a.seq < b.seq
}

// push stamps p's arrival order and appends it to its flow. p's seq is
// the newest, so it sorts after the flow's tail unless its tag is below
// the tail's; that would break the FIFO ordering every dequeue relies
// on. The comparison is written so a NaN tag fails too.
func (q *flowQueues) push(p *Packet) {
	p.seq = q.seq
	q.seq++
	p.next = nil
	if t := q.tail[p.Flow]; t == nil {
		q.head[p.Flow] = p
	} else {
		if kp, kt := q.key(p), q.key(t); !(kp >= kt) {
			panic(fmt.Sprintf("fairqueue: flow %d tag %v below its tail's tag %v", p.Flow, kp, kt))
		}
		t.next = p
	}
	q.tail[p.Flow] = p
	q.n++
}

// first returns the least queued packet, or nil.
func (q *flowQueues) first() *Packet {
	var best *Packet
	for _, h := range q.head {
		if h != nil && (best == nil || q.less(h, best)) {
			best = h
		}
	}
	return best
}

// pop removes and returns the least queued packet, or nil.
func (q *flowQueues) pop() *Packet {
	p := q.first()
	if p == nil {
		return nil
	}
	q.head[p.Flow] = p.next
	if p.next == nil {
		q.tail[p.Flow] = nil
	}
	p.next = nil
	q.n--
	return p
}

// Backlogged implements Algorithm.
func (q *flowQueues) Backlogged() int { return q.n }

// checkWeights rejects weights that are not positive, NaN included: a
// negative or NaN weight makes F = S + size/w fall below S and would
// silently reorder service.
func checkWeights(weights []float64) {
	for f, w := range weights {
		if !(w > 0) {
			panic(fmt.Sprintf("fairqueue: flow %d weight %v, want > 0", f, w))
		}
	}
}

// checkPacket rejects a packet whose flow is out of range or whose size
// is negative (which would make its finish tag precede its start tag).
func checkPacket(weights []float64, p *Packet) {
	if p.Flow < 0 || p.Flow >= len(weights) {
		panic(fmt.Sprintf("fairqueue: flow %d out of range", p.Flow))
	}
	if p.Size < 0 {
		panic(fmt.Sprintf("fairqueue: flow %d packet size %d < 0", p.Flow, p.Size))
	}
}

// SFQ is packet Start-time Fair Queuing: S = max(v, F_flow),
// F = S + size/w, serve in start-tag order; v is the start tag of the
// packet in service (max finish tag while idle). Its fairness is
// independent of server rate fluctuation.
type SFQ struct {
	flowQueues
	weights   []float64
	flowF     []float64
	maxFinish float64
	inService *Packet
}

// NewSFQ returns a packet SFQ over flows with the given weights.
func NewSFQ(weights []float64) *SFQ {
	checkWeights(weights)
	return &SFQ{
		flowQueues: newFlowQueues(len(weights), false),
		weights:    weights,
		flowF:      make([]float64, len(weights)),
	}
}

// Name implements Algorithm.
func (s *SFQ) Name() string { return "sfq" }

// VirtualTime returns v(t).
func (s *SFQ) VirtualTime() float64 {
	if s.inService != nil {
		return s.inService.Start
	}
	if p := s.first(); p != nil {
		return p.Start
	}
	return s.maxFinish
}

// Arrive implements Algorithm.
func (s *SFQ) Arrive(p *Packet, now sim.Time) {
	checkPacket(s.weights, p)
	v := s.VirtualTime()
	p.Start = v
	if f := s.flowF[p.Flow]; f > p.Start {
		p.Start = f
	}
	p.Finish = p.Start + float64(p.Size)/s.weights[p.Flow]
	s.flowF[p.Flow] = p.Finish
	s.push(p)
}

// Dequeue implements Algorithm.
func (s *SFQ) Dequeue(now sim.Time) *Packet {
	p := s.pop()
	if p != nil {
		s.inService = p
	}
	return p
}

// Complete implements Algorithm.
func (s *SFQ) Complete(p *Packet, now sim.Time) {
	if s.inService == p {
		s.inService = nil
	}
	if p.Finish > s.maxFinish {
		s.maxFinish = p.Finish
	}
}

// SCFQ is Self-Clocked Fair Queuing [2,4]: tags as in WFQ but v(t)
// approximated by the finish tag of the packet in service; serve in
// finish-tag order.
type SCFQ struct {
	flowQueues
	weights   []float64
	flowF     []float64
	vtime     float64
	inService *Packet
}

// NewSCFQ returns a packet SCFQ over flows with the given weights.
func NewSCFQ(weights []float64) *SCFQ {
	checkWeights(weights)
	return &SCFQ{
		flowQueues: newFlowQueues(len(weights), true),
		weights:    weights,
		flowF:      make([]float64, len(weights)),
	}
}

// Name implements Algorithm.
func (s *SCFQ) Name() string { return "scfq" }

// Arrive implements Algorithm.
func (s *SCFQ) Arrive(p *Packet, now sim.Time) {
	checkPacket(s.weights, p)
	v := s.vtime
	if s.inService != nil {
		v = s.inService.Finish
	}
	p.Start = v
	if f := s.flowF[p.Flow]; f > p.Start {
		p.Start = f
	}
	p.Finish = p.Start + float64(p.Size)/s.weights[p.Flow]
	s.flowF[p.Flow] = p.Finish
	s.push(p)
}

// Dequeue implements Algorithm.
func (s *SCFQ) Dequeue(now sim.Time) *Packet {
	p := s.pop()
	if p != nil {
		s.inService = p
	}
	return p
}

// Complete implements Algorithm.
func (s *SCFQ) Complete(p *Packet, now sim.Time) {
	if s.inService == p {
		s.inService = nil
		s.vtime = p.Finish
	}
}
