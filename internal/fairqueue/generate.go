package fairqueue

import (
	"sort"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// Batch returns n packets of the given size for one flow, all arriving at
// the same instant — the standard way to make a flow continuously
// backlogged in a packet-level experiment. The packets share one
// backing array, so a batch costs two allocations whatever n is.
func Batch(flow int, size sched.Work, n int, at sim.Time) []*Packet {
	slab := make([]Packet, n)
	out := make([]*Packet, n)
	for i := range out {
		slab[i] = Packet{Flow: flow, Size: size, Arrive: at}
		out[i] = &slab[i]
	}
	return out
}

// Spaced returns n packets of the given size for one flow arriving every
// gap starting at start, allocated like Batch.
func Spaced(flow int, size sched.Work, n int, start, gap sim.Time) []*Packet {
	slab := make([]Packet, n)
	out := make([]*Packet, n)
	for i := range out {
		slab[i] = Packet{Flow: flow, Size: size, Arrive: start + sim.Time(i)*gap}
		out[i] = &slab[i]
	}
	return out
}

// Merge combines packet slices into one arrival-ordered slice. The sort is
// stable, so same-instant packets keep their batch order.
func Merge(batches ...[]*Packet) []*Packet {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	all := make([]*Packet, 0, n)
	for _, b := range batches {
		all = append(all, b...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Arrive < all[j].Arrive })
	return all
}

// NormalizedService returns service/weight for each flow over [a, b].
func NormalizedService(s *Server, served []*Packet, weights []float64, a, b sim.Time) []float64 {
	out := make([]float64, len(weights))
	for f := range weights {
		out[f] = s.FlowService(served, f, a, b) / weights[f]
	}
	return out
}

// MaxGap returns the largest pairwise difference among values.
func MaxGap(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
