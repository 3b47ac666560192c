package fairqueue

import (
	"fmt"
	"sort"

	"hsfq/internal/sim"
)

// RateChange sets the server's service rate (work/second) from time At
// onward. The real CPU behind a scheduling class is exactly such a
// server: its rate drops when interrupts fire or when sibling classes
// become busy.
type RateChange struct {
	At   sim.Time
	Rate float64
}

// Server serves packets one at a time, non-preemptively, at a piecewise
// constant rate. Algorithms that assume a constant capacity (WFQ, FQS)
// are constructed with the *nominal* rate and are not told about changes —
// reproducing the mismatch the paper identifies.
type Server struct {
	alg     Algorithm
	changes []RateChange
}

// NewServer returns a server over alg. changes must be sorted by time and
// start at or before 0; rates must be positive.
func NewServer(alg Algorithm, changes []RateChange) *Server {
	if len(changes) == 0 {
		panic("fairqueue: server without a rate")
	}
	if changes[0].At > 0 {
		panic("fairqueue: first rate change after time 0")
	}
	for i, c := range changes {
		if c.Rate <= 0 {
			panic(fmt.Sprintf("fairqueue: non-positive rate at %v", c.At))
		}
		if i > 0 && c.At <= changes[i-1].At {
			panic("fairqueue: rate changes out of order")
		}
	}
	return &Server{alg: alg, changes: changes}
}

// ConstantServer is shorthand for a fixed-rate server.
func ConstantServer(alg Algorithm, rate float64) *Server {
	return NewServer(alg, []RateChange{{At: 0, Rate: rate}})
}

// rateIndex returns the index of the rate segment containing t.
func (s *Server) rateIndex(t sim.Time) int {
	i := sort.Search(len(s.changes), func(i int) bool { return s.changes[i].At > t })
	return i - 1
}

// WorkIn returns the work the server can perform in [a, b].
func (s *Server) WorkIn(a, b sim.Time) float64 {
	if b <= a {
		return 0
	}
	total := 0.0
	i := s.rateIndex(a)
	for a < b {
		segEnd := b
		if i+1 < len(s.changes) && s.changes[i+1].At < b {
			segEnd = s.changes[i+1].At
		}
		total += s.changes[i].Rate * (segEnd - a).Seconds()
		a = segEnd
		i++
	}
	return total
}

// serviceEnd returns when service of size work starting at t0 completes.
func (s *Server) serviceEnd(t0 sim.Time, size float64) sim.Time {
	i := s.rateIndex(t0)
	t := t0
	remaining := size
	for {
		rate := s.changes[i].Rate
		var segEnd sim.Time = 1 << 62
		if i+1 < len(s.changes) {
			segEnd = s.changes[i+1].At
		}
		capacity := rate * (segEnd - t).Seconds()
		if remaining <= capacity {
			return t + sim.Time(remaining/rate*float64(sim.Second))
		}
		remaining -= capacity
		t = segEnd
		i++
	}
}

// Run serves the given packets (which must be sorted by arrival time) to
// completion and returns them in service order. It restamps every output
// field of every packet — Start, Finish and the arrival order in the
// algorithm's Arrive, Began and Departed here — so the same packets may
// be served again under another algorithm, each run reading only its own
// stamps.
func (s *Server) Run(pkts []*Packet) []*Packet {
	for i := 1; i < len(pkts); i++ {
		if pkts[i].Arrive < pkts[i-1].Arrive {
			panic("fairqueue: packets not sorted by arrival")
		}
	}
	served := make([]*Packet, 0, len(pkts))
	i := 0
	now := sim.Time(0)
	for {
		if s.alg.Backlogged() == 0 {
			if i >= len(pkts) {
				return served
			}
			// Idle until the next arrival.
			if pkts[i].Arrive > now {
				now = pkts[i].Arrive
			}
			for i < len(pkts) && pkts[i].Arrive <= now {
				s.alg.Arrive(pkts[i], pkts[i].Arrive)
				i++
			}
			continue
		}
		p := s.alg.Dequeue(now)
		p.Began = now
		done := s.serviceEnd(now, float64(p.Size))
		// Arrivals during service are stamped at their true times, in
		// order, before the completion is processed.
		for i < len(pkts) && pkts[i].Arrive < done {
			at := pkts[i].Arrive
			if at < now {
				at = now
			}
			s.alg.Arrive(pkts[i], at)
			i++
		}
		now = done
		p.Departed = done
		s.alg.Complete(p, done)
		served = append(served, p)
	}
}

// FlowService returns the work delivered to a flow within [a, b], given
// the served packets: each packet receives the server's full rate during
// [Began, Departed].
func (s *Server) FlowService(served []*Packet, flow int, a, b sim.Time) float64 {
	total := 0.0
	for _, p := range served {
		if p.Flow != flow || p.Departed <= a || p.Began >= b {
			continue
		}
		lo, hi := p.Began, p.Departed
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		total += s.WorkIn(lo, hi)
	}
	return total
}
