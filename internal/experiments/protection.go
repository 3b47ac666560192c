package experiments

import (
	"hsfq/internal/cpu"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

func init() {
	register("ablation-protection", "A8: static priority vs SFQ — protection of best-effort work (§3 item 4, [15])", runAblationProtection)
}

// runAblationProtection demonstrates the sentence the paper builds on
// [15]: "when a multimedia application is run as a real-time thread in
// the SVR4 scheduler, the whole system may become unusable". A
// CPU-hungry video thread and two interactive/batch threads run under
// (a) a static-priority scheduler with the video thread at high priority,
// and (b) SFQ with a high weight. Static priority starves everything
// below; SFQ bounds the video thread to its (large) share and everyone
// progresses.
func runAblationProtection(opt Options) *Result {
	r := &Result{}
	const horizon = 10 * sim.Second

	type outcome struct {
		videoShare float64
		batchWork  sched.Work
		interDone  sched.Work
		maxWait    sim.Time
	}
	run := func(mk func() sched.Scheduler, configure func(video, batch, inter *sched.Thread)) outcome {
		eng := sim.NewEngine()
		m := cpu.NewMachine(eng, rate, mk())
		video := sched.NewThread(1, "video", 1)
		batch := sched.NewThread(2, "batch", 1)
		inter := sched.NewThread(3, "interactive", 1)
		configure(video, batch, inter)
		m.Add(video, cpu.Forever(cpu.Compute(1_000_000)), 0)
		m.Add(batch, cpu.Forever(cpu.Compute(1_000_000)), 0)
		m.Add(inter, cpu.Forever(cpu.Compute(sched.Work(rate/1000)), cpu.Sleep(50*sim.Millisecond)), 0)
		lat := metrics.NewLatencyRecorder(inter)
		m.Listen(lat)
		m.Run(horizon)
		m.Flush()
		return outcome{
			videoShare: float64(video.Done) / float64(m.Stats().Work),
			batchWork:  batch.Done,
			interDone:  inter.Done,
			maxWait:    lat.MaxLatency(inter),
		}
	}

	prio := run(
		func() sched.Scheduler { return sched.NewPriority(10 * sim.Millisecond) },
		func(video, batch, inter *sched.Thread) {
			video.Priority = 10 // "real-time" band
			batch.Priority = 1
			inter.Priority = 1
		})
	sfq := run(
		func() sched.Scheduler { return sched.NewSFQ(10 * sim.Millisecond) },
		func(video, batch, inter *sched.Thread) {
			video.Weight = 8 // same intent: video matters most
			batch.Weight = 1
			inter.Weight = 1
		})

	tbl := metrics.NewTable("scheduler", "video share", "batch work", "interactive work", "interactive max wait")
	tbl.AddRow("static priority", prio.videoShare, int64(prio.batchWork), int64(prio.interDone), prio.maxWait.String())
	tbl.AddRow("sfq (w=8:1:1)", sfq.videoShare, int64(sfq.batchWork), int64(sfq.interDone), sfq.maxWait.String())
	r.Printf("%s", tbl.String())

	r.Check(prio.batchWork == 0, "static priority starves batch",
		"batch did %d work under a high-priority CPU hog", prio.batchWork)
	// The interactive thread is never even dispatched once: no recorded
	// wait, zero progress — "the whole system may become unusable".
	r.Check(prio.interDone == 0, "static priority freezes interactive",
		"interactive did %d work in %v", prio.interDone, horizon)
	r.Check(sfq.batchWork > 0 && sfq.interDone > 0, "SFQ protects best effort",
		"batch %d, interactive %d", sfq.batchWork, sfq.interDone)
	r.Check(sfq.maxWait < 100*sim.Millisecond, "SFQ bounds interactive wait",
		"max wait %v", sfq.maxWait)
	r.Check(sfq.videoShare > 0.7, "SFQ still favors video",
		"video share %.2f with weight 8/10", sfq.videoShare)
	return r
}
