package experiments

import (
	"hsfq/internal/cpu"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

func init() {
	register("ablation-interactive", "A11: interactive vs batch — response time under feedback queues (svr4, mlfq) vs round robin", runAblationInteractive)
}

// runAblationInteractive measures the property time-sharing schedulers are
// built around (§2: "the UNIX SVR4 scheduler attempts to give interactive
// threads higher priority"): a thread that sleeps between short compute
// bursts should get the CPU quickly when it wakes, even against a wall of
// CPU-bound batch work. One interactive thread (0.5 ms burst, 20 ms think
// time) competes with four batch hogs under three leaf disciplines:
//
//   - svr4: the sleep-return boost lifts the waking thread above any
//     priority a CPU-bound hog can hold, so wakeups preempt.
//   - mlfq: the hogs burn full quanta and sink to the bottom level while
//     the interactive thread, always blocking early, stays at level 0 and
//     preempts on wake.
//   - round robin (the feedback-free baseline): the waking thread joins
//     the tail and waits out up to four full hog quanta.
//
// The shape checks assert the interactive win — both feedback queues beat
// the baseline's p90 response time by a wide margin — and that neither
// buys it by starving batch. This is the flip side of the adversary
// suite's boost-abuse attack: the same mechanism that makes svr4 and mlfq
// gameable by a sleeping hog is what earns them their response-time win
// for honest interactive work.
func runAblationInteractive(opt Options) *Result {
	r := &Result{}
	const horizon = 10 * sim.Second
	const quantum = sched.DefaultQuantum

	type outcome struct {
		lat       metrics.Summary
		interDone sched.Work
		batchWork sched.Work
		topLevel  int // interactive's final mlfq level, -1 elsewhere
	}
	run := func(mk func() sched.Scheduler) outcome {
		leaf := mk()
		m := cpu.NewMachine(sim.NewEngine(), rate, leaf)
		inter := sched.NewThread(1, "interactive", 1)
		m.Add(inter, cpu.Forever(cpu.Compute(sched.Work(rate/2000)), cpu.Sleep(20*sim.Millisecond)), 0)
		// Batch bursts are longer than svr4's largest quantum (200 ms at
		// level 0) so quantum expiry, not compute-action boundaries, governs
		// the hogs' priority feedback. A hog whose bursts end mid-quantum is
		// front-inserted at its level and can climb the lwait ladder to the
		// slpret ceiling and camp there — that is the boost-abuse cell of
		// internal/adversary, not the batch workload of this experiment.
		hogs := make([]*sched.Thread, 4)
		for i := range hogs {
			hogs[i] = sched.NewThread(2+i, "batch", 1)
			m.Add(hogs[i], cpu.Forever(cpu.Compute(25_000_000)), 0)
		}
		lat := metrics.NewLatencyRecorder(inter)
		m.Listen(lat)
		m.Run(horizon)
		m.Flush()
		out := outcome{
			lat:       metrics.Summarize(metrics.Durations(lat.Latencies(inter))),
			interDone: inter.Done,
			topLevel:  -1,
		}
		for _, h := range hogs {
			out.batchWork += h.Done
		}
		if q, ok := leaf.(*sched.MLFQ); ok {
			out.topLevel = q.Level(inter)
		}
		return out
	}

	svr4 := run(func() sched.Scheduler { return sched.NewSVR4(nil, int64(rate), 25*sim.Millisecond) })
	mlfq := run(func() sched.Scheduler { return sched.NewMLFQ(0, quantum, 0, int64(rate)) })
	rr := run(func() sched.Scheduler { return sched.NewRoundRobin(quantum) })

	tbl := metrics.NewTable("scheduler", "wakeups", "latency p50(ms)", "p90(ms)", "max(ms)", "interactive work", "batch work")
	row := func(name string, o outcome) {
		tbl.AddRow(name, o.lat.N, o.lat.P50, o.lat.P90, o.lat.Max, int64(o.interDone), int64(o.batchWork))
	}
	row("svr4", svr4)
	row("mlfq", mlfq)
	row("rr", rr)
	r.Printf("%s", tbl.String())

	r.Check(svr4.lat.P90 < rr.lat.P90/3, "svr4 wins interactive response time",
		"p90 %.2fms vs rr %.2fms (sleep-return boost preempts the hogs)", svr4.lat.P90, rr.lat.P90)
	r.Check(mlfq.lat.P90 < rr.lat.P90/3, "mlfq wins interactive response time",
		"p90 %.2fms vs rr %.2fms (level 0 preempts the demoted hogs)", mlfq.lat.P90, rr.lat.P90)
	r.Check(mlfq.topLevel == 0, "mlfq keeps interactive at the top level",
		"final level %d (blocking early never demotes)", mlfq.topLevel)
	r.Check(svr4.interDone > rr.interDone && mlfq.interDone > rr.interDone,
		"feedback completes more interactive cycles",
		"svr4 %d, mlfq %d vs rr %d", svr4.interDone, mlfq.interDone, rr.interDone)
	r.Check(svr4.batchWork > 0 && mlfq.batchWork > 0,
		"batch not starved for the win",
		"svr4 %d, mlfq %d (rr %d)", svr4.batchWork, mlfq.batchWork, rr.batchWork)
	return r
}
