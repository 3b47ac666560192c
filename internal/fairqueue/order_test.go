package fairqueue

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// algorithmNames lists the four algorithms in a fixed order.
var algorithmNames = []string{"sfq", "scfq", "wfq", "fqs"}

func newAlgorithm(name string, capacity float64, weights []float64) Algorithm {
	switch name {
	case "sfq":
		return NewSFQ(weights)
	case "scfq":
		return NewSCFQ(weights)
	case "wfq":
		return NewWFQ(capacity, weights)
	case "fqs":
		return NewFQS(capacity, weights)
	}
	panic("unknown algorithm " + name)
}

// refQueue is the test-only reference model of the four algorithms: the
// same tag rules, restated, over one unordered slice of queued packets
// that Dequeue searches linearly for the least (tag, arrival order). It
// relies on no ordering property of a flow's tags, so it checks the
// per-flow FIFOs' claim that the least packet is always a flow head.
type refQueue struct {
	name      string
	weights   []float64
	flowF     []float64
	ref       *gps // wfq, fqs
	queued    []*Packet
	inService *Packet // sfq, scfq
	vtime     float64 // scfq: finish tag of the last completed packet
	maxFinish float64 // sfq: largest finish tag completed
	seq       int
}

func newRefQueue(name string, capacity float64, weights []float64) *refQueue {
	return &refQueue{
		name:    name,
		weights: weights,
		flowF:   make([]float64, len(weights)),
		ref:     newGPS(capacity, weights),
	}
}

func (r *refQueue) Name() string { return "ref-" + r.name }

func (r *refQueue) key(p *Packet) float64 {
	if r.name == "scfq" || r.name == "wfq" {
		return p.Finish
	}
	return p.Start
}

// least returns the index of the least queued packet, or -1.
func (r *refQueue) least() int {
	best := -1
	for i, p := range r.queued {
		if best < 0 {
			best = i
			continue
		}
		b := r.queued[best]
		if kp, kb := r.key(p), r.key(b); kp < kb || kp == kb && p.seq < b.seq {
			best = i
		}
	}
	return best
}

func (r *refQueue) Arrive(p *Packet, now sim.Time) {
	switch r.name {
	case "wfq", "fqs":
		p.Start, p.Finish = r.ref.arrive(p.Flow, float64(p.Size), now)
	default:
		var v float64
		switch {
		case r.name == "scfq" && r.inService != nil:
			v = r.inService.Finish
		case r.name == "scfq":
			v = r.vtime
		case r.inService != nil:
			v = r.inService.Start
		case len(r.queued) > 0:
			v = r.queued[r.least()].Start
		default:
			v = r.maxFinish
		}
		p.Start = v
		if f := r.flowF[p.Flow]; f > v {
			p.Start = f
		}
		p.Finish = p.Start + float64(p.Size)/r.weights[p.Flow]
		r.flowF[p.Flow] = p.Finish
	}
	p.seq = r.seq
	r.seq++
	r.queued = append(r.queued, p)
}

func (r *refQueue) Dequeue(now sim.Time) *Packet {
	i := r.least()
	if i < 0 {
		return nil
	}
	p := r.queued[i]
	r.queued = append(r.queued[:i], r.queued[i+1:]...)
	if r.name == "sfq" || r.name == "scfq" {
		r.inService = p
	}
	return p
}

func (r *refQueue) Complete(p *Packet, now sim.Time) {
	if r.inService == p {
		r.inService = nil
		if r.name == "scfq" {
			r.vtime = p.Finish
		}
	}
	if p.Finish > r.maxFinish {
		r.maxFinish = p.Finish
	}
}

func (r *refQueue) Backlogged() int { return len(r.queued) }

// scenario is one packet-level input: flows with weights, packet
// templates sorted by arrival, and the server's rate changes. capacity
// is the nominal rate WFQ and FQS assume.
type scenario struct {
	name     string
	weights  []float64
	pkts     []Packet
	changes  []RateChange
	capacity float64
}

// packets returns fresh copies of the scenario's packets.
func (sc scenario) packets() []*Packet {
	out := make([]*Packet, len(sc.pkts))
	for i, p := range sc.pkts {
		out[i] = &Packet{Flow: p.Flow, Size: p.Size, Arrive: p.Arrive}
	}
	return out
}

// decodeScenario turns bytes into a valid scenario: 1-6 flows with
// fractional weights, a piecewise-constant rate around the nominal
// capacity, and up to 300 packets with zero and non-zero sizes and
// same-instant or spread-out arrivals. Exhausted input reads as zeros.
func decodeScenario(data []byte) scenario {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	sc := scenario{name: "decoded"}
	flows := 1 + next()%6
	for f := 0; f < flows; f++ {
		sc.weights = append(sc.weights, float64(1+next())/float64(1+next()%16))
	}
	sc.capacity = float64(1000 * (1 + next()%50))
	at := sim.Time(0)
	for n := 1 + next()%4; len(sc.changes) < n; {
		sc.changes = append(sc.changes, RateChange{At: at, Rate: sc.capacity * float64(1+next()%8) / 4})
		at += sim.Time(1+next()) * 10 * sim.Millisecond
	}
	arrive := sim.Time(0)
	for len(data) >= 3 && len(sc.pkts) < 300 {
		flow, size, gap := next()%flows, next(), next()
		if size%5 == 0 {
			size = 0
		}
		if gap%4 != 0 {
			arrive += sim.Time(gap*gap) * sim.Microsecond
		}
		sc.pkts = append(sc.pkts, Packet{Flow: flow, Size: sched.Work(size * 37), Arrive: arrive})
	}
	return sc
}

// servedRecord is what one run yields for one packet, keyed by the
// packet's index in the input slice.
type servedRecord struct {
	Index           int
	Start, Finish   float64
	Began, Departed sim.Time
}

// serve runs pkts under alg and returns the service order.
func serve(sc scenario, alg Algorithm, pkts []*Packet) []servedRecord {
	index := make(map[*Packet]int, len(pkts))
	for i, p := range pkts {
		index[p] = i
	}
	served := NewServer(alg, sc.changes).Run(pkts)
	out := make([]servedRecord, len(served))
	for i, p := range served {
		out[i] = servedRecord{index[p], p.Start, p.Finish, p.Began, p.Departed}
	}
	return out
}

// sameOrder reports the first difference between two service orders.
func sameOrder(got, want []servedRecord) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %d packets, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// drive calls the Algorithm methods directly, without a Server, so the
// algorithm also meets states a work-conserving server never creates:
// packets left queued while nothing is in service, and arrivals between
// a completion and the next dequeue. After each arrival the packet's
// flow, size and index pick whether to dequeue, complete the packet in
// service, or wait; the rest drains at the end. Began and Departed
// record the dequeue and completion instants.
func drive(alg Algorithm, pkts []*Packet) []servedRecord {
	index := make(map[*Packet]int, len(pkts))
	for i, p := range pkts {
		index[p] = i
	}
	var out []servedRecord // the packet in service, if any, is last
	var inService *Packet
	now := sim.Time(0)
	step := func(complete bool) {
		switch {
		case complete && inService != nil:
			alg.Complete(inService, now)
			out[len(out)-1].Departed = now
			inService = nil
		case !complete && inService == nil:
			if p := alg.Dequeue(now); p != nil {
				inService = p
				out = append(out, servedRecord{Index: index[p], Start: p.Start, Finish: p.Finish, Began: now})
			}
		}
	}
	for i, p := range pkts {
		now = p.Arrive
		alg.Arrive(p, now)
		switch (p.Flow + int(p.Size) + i) % 3 {
		case 0:
			step(false)
		case 1:
			step(true)
		}
	}
	for inService != nil || alg.Backlogged() > 0 {
		now += sim.Millisecond
		step(true)
		step(false)
	}
	return out
}

// checkAgainstModel serves sc under each algorithm and under the
// reference model, on separate packet copies, and compares: once through
// a Server and once through direct calls.
func checkAgainstModel(t *testing.T, sc scenario) {
	t.Helper()
	for _, name := range algorithmNames {
		got := serve(sc, newAlgorithm(name, sc.capacity, sc.weights), sc.packets())
		want := serve(sc, newRefQueue(name, sc.capacity, sc.weights), sc.packets())
		if err := sameOrder(got, want); err != nil {
			t.Fatalf("%s: %s served: %v", sc.name, name, err)
		}
		got = drive(newAlgorithm(name, sc.capacity, sc.weights), sc.packets())
		want = drive(newRefQueue(name, sc.capacity, sc.weights), sc.packets())
		if err := sameOrder(got, want); err != nil {
			t.Fatalf("%s: %s driven: %v", sc.name, name, err)
		}
	}
}

// randomScenario draws a scenario from rng through decodeScenario, so
// the table and the fuzzer share one input space.
func randomScenario(rng *rand.Rand, name string) scenario {
	data := make([]byte, rng.Intn(900))
	rng.Read(data)
	sc := decodeScenario(data)
	sc.name = name
	return sc
}

// handScenarios are the edge cases the ordering argument turns on.
func handScenarios() []scenario {
	batch := func(flow int, size sched.Work, n int, at sim.Time) []Packet {
		out := make([]Packet, n)
		for i := range out {
			out[i] = Packet{Flow: flow, Size: size, Arrive: at}
		}
		return out
	}
	cat := func(parts ...[]Packet) []Packet {
		var all []Packet
		for _, p := range parts {
			all = append(all, p...)
		}
		return all
	}
	constant := []RateChange{{At: 0, Rate: 1000}}
	return []scenario{
		{
			// Equal weights and sizes, all at once: every tag ties
			// across flows and arrival order decides.
			name:    "all-ties",
			weights: []float64{1, 1, 1},
			pkts:    cat(batch(0, 100, 5, 0), batch(1, 100, 5, 0), batch(2, 100, 5, 0)),
			changes: constant, capacity: 1000,
		},
		{
			// Zero-size packets leave F = S, so a flow's tags repeat.
			name:    "zero-sizes",
			weights: []float64{1, 2},
			pkts:    cat(batch(0, 0, 4, 0), batch(1, 50, 3, 0), batch(1, 0, 3, 0), batch(0, 20, 2, 0)),
			changes: constant, capacity: 1000,
		},
		{
			// Fractional weights whose size/w quotients round.
			name:    "fractional-weights",
			weights: []float64{0.3, 1.0 / 7, 2.9},
			pkts:    cat(batch(0, 13, 6, 0), batch(1, 7, 6, 0), batch(2, 101, 6, 0)),
			changes: constant, capacity: 1000,
		},
		{
			// The A1 shape in small: the rate drops to a fifth and a
			// third flow joins while it is low.
			name:    "rate-drop-joiner",
			weights: []float64{1, 1, 1},
			pkts:    cat(batch(0, 10, 200, 0), batch(1, 10, 200, 0), batch(2, 10, 200, sim.Second)),
			changes: []RateChange{
				{At: 0, Rate: 1000},
				{At: 500 * sim.Millisecond, Rate: 200},
				{At: 1500 * sim.Millisecond, Rate: 1000},
			},
			capacity: 1000,
		},
	}
}

// TestPacketOrderMatchesModel: every algorithm serves every scenario in
// the same order, with the same tags and times, as the reference model.
func TestPacketOrderMatchesModel(t *testing.T) {
	scenarios := handScenarios()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		scenarios = append(scenarios, randomScenario(rng, fmt.Sprintf("random-%d", i)))
	}
	for _, sc := range scenarios {
		checkAgainstModel(t, sc)
	}
}

func FuzzPacketOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 5, 0, 0, 5, 0})                // ties, zero sizes
	f.Add([]byte{3, 9, 2, 200, 7, 30, 3, 10, 1, 4, 3, 2, 80, 1, 3, 1, 7, 9, 2, 0, 0})  // rate changes
	f.Add([]byte{5, 1, 15, 255, 14, 17, 3, 90, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 0}) // fractional weights
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstModel(t, decodeScenario(data))
	})
}

// TestSharedPacketsMatchFreshCopies: serving one packet slice under
// several algorithms in turn gives each the result it gets on fresh
// packets — every Run restamps all output fields.
func TestSharedPacketsMatchFreshCopies(t *testing.T) {
	scenarios := handScenarios()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		scenarios = append(scenarios, randomScenario(rng, fmt.Sprintf("random-%d", i)))
	}
	order := append(append([]string{}, algorithmNames...), "sfq", "wfq")
	for _, sc := range scenarios {
		shared := sc.packets()
		for _, name := range order {
			got := serve(sc, newAlgorithm(name, sc.capacity, sc.weights), shared)
			want := serve(sc, newAlgorithm(name, sc.capacity, sc.weights), sc.packets())
			if err := sameOrder(got, want); err != nil {
				t.Fatalf("%s: %s on reused packets: %v", sc.name, name, err)
			}
		}
	}
}

// mustPanic runs f and checks it panics with a message containing want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", what)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q, want it to mention %q", what, msg, want)
		}
	}()
	f()
}

func TestConstructorsRejectBadWeights(t *testing.T) {
	for _, name := range algorithmNames {
		for _, w := range []float64{0, -1, math.NaN(), math.Inf(-1)} {
			mustPanic(t, fmt.Sprintf("%s weight %v", name, w), fmt.Sprintf("flow 1 weight %v", w), func() {
				newAlgorithm(name, mega, []float64{1, w})
			})
		}
	}
}

func TestArriveRejectsNegativeSize(t *testing.T) {
	for _, name := range algorithmNames {
		alg := newAlgorithm(name, mega, []float64{1, 1})
		mustPanic(t, name, "flow 1 packet size -1", func() {
			alg.Arrive(&Packet{Flow: 1, Size: -1}, 0)
		})
	}
}

// TestPushBelowTailPanics: the online check on the per-flow ordering.
// No valid input reaches it, so the test pushes hand-stamped packets.
func TestPushBelowTailPanics(t *testing.T) {
	for _, byFinish := range []bool{false, true} {
		q := newFlowQueues(2, byFinish)
		q.push(&Packet{Flow: 1, Start: 10, Finish: 10})
		q.push(&Packet{Flow: 1, Start: 10, Finish: 10}) // equal tags are fine
		mustPanic(t, fmt.Sprintf("byFinish=%v", byFinish), "flow 1 tag 9.5 below its tail's tag 10", func() {
			q.push(&Packet{Flow: 1, Start: 9.5, Finish: 9.5})
		})
		mustPanic(t, fmt.Sprintf("byFinish=%v NaN", byFinish), "flow 1 tag NaN", func() {
			q.push(&Packet{Flow: 1, Start: math.NaN(), Finish: math.NaN()})
		})
	}
}
