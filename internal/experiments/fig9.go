package experiments

import (
	"hsfq/internal/cpu"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/workload"
)

func init() {
	register("fig9", "Hard real-time under the hierarchy: scheduling latency and slack time", runFig9)
}

// runFig9 reproduces the hard real-time experiment: thread1 (10 ms every
// 60 ms) and thread2 (150 ms every 960 ms) run in the RT class of the
// SVR4 node under Rate Monotonic priorities, with an MPEG decoder in
// SFQ-1; SVR4 and SFQ-1 have equal weights and 25 ms quanta. The paper
// finds thread1's scheduling latency bounded by the quantum and its slack
// always positive.
func runFig9(opt Options) *Result {
	r := &Result{}
	const horizon = 30 * sim.Second
	const quantum = 25 * sim.Millisecond
	f := buildFig6(1, 1, 1, quantum)
	eng := sim.NewEngine()
	m := cpu.NewMachine(eng, rate, f.S)
	rng := sim.NewRand(opt.Seed)

	msWork := func(ms int64) sched.Work { return sched.Work(ms * int64(rate) / 1000) }

	// Rate monotonic: thread1 has the shorter period, hence the higher RT
	// priority.
	p1 := &workload.Periodic{Period: 60 * sim.Millisecond, Cost: msWork(10)}
	t1 := sched.NewThread(1, "thread1", 1)
	t1.Period = p1.Period
	f.SVR4Leaf.SetRealTime(t1, 20)
	must(f.S.Attach(t1, f.SVR4))
	m.Add(t1, p1, 0)

	p2 := &workload.Periodic{Period: 960 * sim.Millisecond, Cost: msWork(150)}
	t2 := sched.NewThread(2, "thread2", 1)
	t2.Period = p2.Period
	f.SVR4Leaf.SetRealTime(t2, 10)
	must(f.S.Attach(t2, f.SVR4))
	m.Add(t2, p2, 0)

	// An MPEG decoder in SFQ-1, competing from the sibling node.
	gen := workload.DefaultMPEG(int64(rate), rng)
	dec := workload.NewDecoder(gen.Trace(100000), true)
	td := sched.NewThread(3, "mpeg", 1)
	must(f.S.Attach(td, f.SFQ1))
	m.Add(td, dec, 0)

	lat := metrics.NewLatencyRecorder(t1, t2)
	m.Listen(lat)
	m.Run(horizon)

	l1 := metrics.Durations(lat.Latencies(t1))
	s1 := metrics.Durations(p1.Slack)
	s2 := metrics.Durations(p2.Slack)
	r.Printf("thread1: %d rounds, latency(ms): %v\n", len(p1.Slack), metrics.Summarize(l1))
	r.Printf("thread1 slack(ms): %v\n", metrics.Summarize(s1))
	r.Printf("thread2: %d rounds, slack(ms): %v\n", len(p2.Slack), metrics.Summarize(s2))
	if opt.Plot {
		must(metrics.AsciiPlot(&r.out, 8, map[rune][]float64{'L': l1[:min(len(l1), 200)]}))
		must(metrics.AsciiPlot(&r.out, 8, map[rune][]float64{'S': s1[:min(len(s1), 200)]}))
	}

	// Paper shape (Fig. 9a): "thread1 gained access to the CPU within a
	// bounded period of time (equal to the length of the scheduling
	// quantum) after its clock interrupt". The exact SFQ delay bound for
	// two equal-weight competing nodes is two quanta — the sibling may be
	// mid-quantum at the wakeup, and the waking node's finish tag may
	// trail by up to one more quantum of service (Eq. 8 with one
	// competitor: (lmax_other + l_own)/C). The bulk of wakeups (p90) land
	// within the single quantum the paper plots.
	maxLat := lat.MaxLatency(t1)
	p90 := metrics.Summarize(l1).P90
	r.Check(maxLat <= 2*quantum+sim.Millisecond, "latency within SFQ delay bound",
		"max latency %v, bound 2x quantum = %v", maxLat, 2*quantum)
	r.Check(p90 <= quantum.Milliseconds()+1, "p90 latency within one quantum",
		"p90 %.2fms, quantum %v", p90, quantum)
	// Fig. 9b: "none of the deadlines for thread1 were violated (i.e.,
	// the slack time is always positive)".
	r.Check(p1.MissedDeadlines() == 0 && p1.MinSlack() > 0, "thread1 slack positive",
		"missed=%d minSlack=%v over %d rounds", p1.MissedDeadlines(), p1.MinSlack(), len(p1.Slack))
	r.Check(p2.MissedDeadlines() == 0, "thread2 deadlines met",
		"missed=%d minSlack=%v", p2.MissedDeadlines(), p2.MinSlack())
	r.Check(td.Done > 0, "decoder progresses", "decoder work %d", td.Done)
	return r
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
