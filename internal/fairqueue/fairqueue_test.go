package fairqueue

import (
	"math"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

const mega = 1_000_000

// TestProportionalOnConstantServer: on a constant-rate server with all
// flows continuously backlogged, every algorithm shares in proportion to
// weights.
func TestProportionalOnConstantServer(t *testing.T) {
	weights := []float64{1, 2, 3}
	for _, name := range algorithmNames {
		alg := newAlgorithm(name, mega, weights)
		t.Run(name, func(t *testing.T) {
			pkts := Merge(
				Batch(0, 1000, 4000, 0),
				Batch(1, 1000, 4000, 0),
				Batch(2, 1000, 4000, 0),
			)
			srv := ConstantServer(alg, mega)
			served := srv.Run(pkts)
			norm := NormalizedService(srv, served, weights, sim.Second, 5*sim.Second)
			if gap := MaxGap(norm); gap > 3000 {
				t.Errorf("normalized service %v, gap %v", norm, gap)
			}
		})
	}
}

func TestPacketTagsSFQ(t *testing.T) {
	s := NewSFQ([]float64{1, 2})
	p1 := &Packet{Flow: 0, Size: 100}
	s.Arrive(p1, 0)
	if p1.Start != 0 || p1.Finish != 100 {
		t.Errorf("p1 tags %v %v", p1.Start, p1.Finish)
	}
	p2 := &Packet{Flow: 1, Size: 100}
	s.Arrive(p2, 0)
	if p2.Start != 0 || p2.Finish != 50 {
		t.Errorf("p2 tags %v %v", p2.Start, p2.Finish)
	}
	// Back-to-back packet of flow 0 starts at the flow's finish tag.
	p3 := &Packet{Flow: 0, Size: 100}
	s.Arrive(p3, 0)
	if p3.Start != 100 || p3.Finish != 200 {
		t.Errorf("p3 tags %v %v", p3.Start, p3.Finish)
	}
	// Service order: start tags 0, 0, 100 -> p1 then p2 (FIFO tie) then p3.
	if got := s.Dequeue(0); got != p1 {
		t.Errorf("first dequeue %v", got)
	}
	s.Complete(p1, 0)
	if got := s.Dequeue(0); got != p2 {
		t.Errorf("second dequeue %v", got)
	}
	s.Complete(p2, 0)
	if s.VirtualTime() != 100 {
		t.Errorf("v = %v after completing tag-0 packets", s.VirtualTime())
	}
	if got := s.Dequeue(0); got != p3 {
		t.Errorf("third %v", got)
	}
	s.Complete(p3, 0)
	// Idle: v = max finish tag.
	if s.VirtualTime() != 200 {
		t.Errorf("idle v = %v", s.VirtualTime())
	}
}

func TestPacketSFQIdleRestamp(t *testing.T) {
	s := NewSFQ([]float64{1, 1})
	p1 := &Packet{Flow: 0, Size: 100}
	s.Arrive(p1, 0)
	s.Dequeue(0)
	s.Complete(p1, sim.Millisecond)
	// Flow 1 arrives after idle: its start tag is v=100, not 0.
	p2 := &Packet{Flow: 1, Size: 50}
	s.Arrive(p2, sim.Second)
	if p2.Start != 100 {
		t.Errorf("post-idle start %v, want 100", p2.Start)
	}
}

func TestWFQNeedsSizesUpfrontAndOrdersByFinish(t *testing.T) {
	w := NewWFQ(mega, []float64{1, 1})
	big := &Packet{Flow: 0, Size: 1000}
	small := &Packet{Flow: 1, Size: 10}
	w.Arrive(big, 0)
	w.Arrive(small, 0)
	// WFQ orders by finish tag: the small packet goes first even though
	// both arrived together (SFQ would tie on start tags and go FIFO).
	if got := w.Dequeue(0); got != small {
		t.Errorf("WFQ served %v first", got)
	}
}

func TestGPSVirtualTimeConstantRate(t *testing.T) {
	// One backlogged flow of weight 1 on capacity 1000: v advances at
	// 1000/s while busy.
	g := newGPS(1000, []float64{1, 1})
	s, f := g.arrive(0, 500, 0)
	if s != 0 || f != 500 {
		t.Fatalf("tags %v %v", s, f)
	}
	// At t=0.1s, v should be 100 (rate 1000, one active flow).
	s2, _ := g.arrive(1, 100, 100*sim.Millisecond)
	if math.Abs(s2-100) > 1e-6 {
		t.Errorf("v(0.1s) = %v, want 100", s2)
	}
	// Now two active flows: v advances at 500/s. At t=0.2s, v = 100+50.
	s3, _ := g.arrive(1, 100, 200*sim.Millisecond)
	if math.Abs(s3-200) > 1e-6 {
		// flow 1's own finish tag dominates: 100+100/1 = 200
		t.Errorf("S = %v, want 200 (flow finish tag)", s3)
	}
}

func TestGPSDeparturesSpeedUpClock(t *testing.T) {
	g := newGPS(1000, []float64{1, 1})
	g.arrive(0, 100, 0) // drains in GPS at v=100
	g.arrive(1, 400, 0)
	// After flow 0 drains (at v=100, real t=0.2s since rate is 500/s for
	// each), v advances at 1000/s for flow 1 alone. At t=0.4s:
	// v = 100 + 0.2*1000 = 300.
	s, _ := g.arrive(0, 10, 400*sim.Millisecond)
	if math.Abs(s-300) > 1e-6 {
		t.Errorf("v(0.4s) = %v, want 300", s)
	}
}

func TestServerWorkInAndFlowService(t *testing.T) {
	alg := NewSFQ([]float64{1})
	srv := NewServer(alg, []RateChange{
		{At: 0, Rate: 1000},
		{At: sim.Second, Rate: 500},
	})
	if got := srv.WorkIn(0, 2*sim.Second); got != 1500 {
		t.Errorf("WorkIn = %v", got)
	}
	if got := srv.WorkIn(500*sim.Millisecond, 1500*sim.Millisecond); got != 750 {
		t.Errorf("WorkIn straddling = %v", got)
	}
	pkts := Batch(0, 1200, 1, 0)
	served := srv.Run(pkts)
	// 1000 work in the first second, 200 more at 500/s: departs at 1.4s.
	if served[0].Departed != 1400*sim.Millisecond {
		t.Errorf("departed %v", served[0].Departed)
	}
	if got := srv.FlowService(served, 0, 0, sim.Second); got != 1000 {
		t.Errorf("flow service in first second %v", got)
	}
}

func TestServerValidation(t *testing.T) {
	for _, bad := range [][]RateChange{
		nil,
		{{At: sim.Second, Rate: 1}},
		{{At: 0, Rate: 0}},
		{{At: 0, Rate: 1}, {At: 0, Rate: 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad rate changes %v did not panic", bad)
				}
			}()
			NewServer(NewSFQ([]float64{1}), bad)
		}()
	}
}

func TestGenerators(t *testing.T) {
	b := Batch(2, 50, 3, sim.Second)
	if len(b) != 3 || b[0].Flow != 2 || b[2].Arrive != sim.Second {
		t.Errorf("batch %v", b)
	}
	sp := Spaced(1, 10, 3, 0, sim.Millisecond)
	if sp[2].Arrive != 2*sim.Millisecond {
		t.Errorf("spaced %v", sp)
	}
	m := Merge(Batch(0, 1, 2, sim.Second), Spaced(1, 1, 2, 0, 10*sim.Second))
	if m[0].Flow != 1 || m[1].Arrive != sim.Second || m[3].Arrive != 10*sim.Second {
		t.Errorf("merge order wrong")
	}
	if MaxGap([]float64{3, 1, 7}) != 6 || MaxGap(nil) != 0 {
		t.Error("MaxGap wrong")
	}
}

// TestPacketSFQMatchesThreadSFQ cross-checks the two SFQ implementations:
// the packet scheduler over continuously backlogged flows must produce
// the same service order as the CPU scheduler over always-runnable
// threads with the same weights and quanta.
func TestPacketSFQMatchesThreadSFQ(t *testing.T) {
	weights := []float64{1, 2, 5}
	const quantum = 1000
	const rounds = 300

	// Packet side.
	alg := NewSFQ(weights)
	var pkts []*Packet
	for f := range weights {
		pkts = append(pkts, Batch(f, quantum, rounds, 0)...)
	}
	srv := ConstantServer(NewSFQOrderProbe(alg), mega)
	served := srv.Run(Merge(pkts))
	var packetOrder []int
	for _, p := range served {
		packetOrder = append(packetOrder, p.Flow)
	}

	// Thread side.
	ts := sched.NewSFQ(0)
	threads := make([]*sched.Thread, len(weights))
	for i, w := range weights {
		threads[i] = sched.NewThread(i, "t", w)
		ts.Enqueue(threads[i], 0)
	}
	var threadOrder []int
	for i := 0; i < len(packetOrder); i++ {
		p := ts.Pick(0)
		threadOrder = append(threadOrder, p.ID)
		ts.Charge(p, quantum, 0, true)
	}

	// "Ties are broken arbitrarily" (§3), and the two implementations
	// break equal start tags differently (arrival order vs charge
	// recency), so exact orders may permute within a tie group. The
	// schedules are equivalent iff every flow's cumulative service
	// matches within one quantum at every prefix.
	pc := make([]int, len(weights))
	tc := make([]int, len(weights))
	for i := range packetOrder {
		pc[packetOrder[i]]++
		tc[threadOrder[i]]++
		if pc[packetOrder[i]] == rounds {
			// This flow's packet queue is exhausted; the flows stop
			// being equivalent to always-runnable threads here.
			break
		}
		for f := range weights {
			if d := pc[f] - tc[f]; d > 1 || d < -1 {
				t.Fatalf("step %d: flow %d served %d packets vs %d quanta", i, f, pc[f], tc[f])
			}
		}
	}
}

// NewSFQOrderProbe passes through an algorithm unchanged; it exists so the
// cross-check reads clearly at the call site.
func NewSFQOrderProbe(a Algorithm) Algorithm { return a }

// TestFQSOrdersByStartTag: FQS uses WFQ's tags but serves in start order,
// so it does not need packet sizes at dispatch time — the §6 motivation.
func TestFQSOrdersByStartTag(t *testing.T) {
	f := NewFQS(mega, []float64{1, 1})
	big := &Packet{Flow: 0, Size: 1000}
	small := &Packet{Flow: 1, Size: 10}
	f.Arrive(big, 0)
	f.Arrive(small, 0)
	// Equal start tags: FIFO tie-break serves the earlier arrival first,
	// unlike WFQ which jumps the small packet ahead by finish tag.
	if got := f.Dequeue(0); got != big {
		t.Errorf("FQS served %v first, want arrival order on start-tag tie", got)
	}
}

// TestSCFQVirtualTimeFollowsService: SCFQ's v(t) is the finish tag of the
// packet in service — self-clocked, no reference system.
func TestSCFQVirtualTimeFollowsService(t *testing.T) {
	s := NewSCFQ([]float64{1})
	p1 := &Packet{Flow: 0, Size: 100}
	s.Arrive(p1, 0)
	s.Dequeue(0)
	// A packet arriving during service is stamped with the in-service
	// packet's finish tag.
	p2 := &Packet{Flow: 0, Size: 50}
	s.Arrive(p2, sim.Millisecond)
	if p2.Start != p1.Finish {
		t.Errorf("S2 = %v, want F1 = %v", p2.Start, p1.Finish)
	}
	s.Complete(p1, 2*sim.Millisecond)
}

// TestServerUnsortedPanics guards the arrival-order contract.
func TestServerUnsortedPanics(t *testing.T) {
	srv := ConstantServer(NewSFQ([]float64{1}), mega)
	pkts := []*Packet{
		{Flow: 0, Size: 1, Arrive: sim.Second},
		{Flow: 0, Size: 1, Arrive: 0},
	}
	defer func() {
		if recover() == nil {
			t.Error("unsorted packets accepted")
		}
	}()
	srv.Run(pkts)
}
