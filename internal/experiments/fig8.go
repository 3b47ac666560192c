package experiments

import (
	"hsfq/internal/cpu"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/workload"
)

func init() {
	register("fig8a", "Hierarchical CPU allocation: aggregate throughput of SFQ-1 and SFQ-2 in ratio 1:3", runFig8a)
	register("fig8b", "Isolation of heterogeneous leaf schedulers: SFQ-1 vs SVR4, equal weights", runFig8b)
}

// runFig8a: Fig. 6 structure with weights SFQ-1=2, SFQ-2=6, SVR4=1; two
// Dhrystone threads in each SFQ node, the system's other threads in SVR4.
// The SVR4 load fluctuates, so the bandwidth left for SFQ-1 and SFQ-2
// varies — and must still be split 1:3.
func runFig8a(opt Options) *Result {
	r := &Result{}
	const horizon = 30 * sim.Second
	f := buildFig6(2, 6, 1, 10*sim.Millisecond)
	eng := sim.NewEngine()
	m := cpu.NewMachine(eng, rate, f.S)
	rng := sim.NewRand(opt.Seed)

	// The benchmark threads are pure CPU hogs, as in the paper; the fault
	// modeling used for Fig. 5 would only add convoy noise here.
	var sfq1, sfq2 []*sched.Thread
	for i := 0; i < 2; i++ {
		sfq1 = append(sfq1, attach(m, f.S, f.SFQ1, 10+i, "sfq1-dhry", 1, dhryPure().Program()))
		sfq2 = append(sfq2, attach(m, f.S, f.SFQ2, 20+i, "sfq2-dhry", 1, dhryPure().Program()))
	}
	// "SVR4 node contained all the other threads in the system": a
	// fluctuating on/off load plus interactive daemons.
	attach(m, f.S, f.SVR4, 30, "burst", 1,
		workload.OnOff(sched.Work(rate/100), 22, 2*sim.Second))
	for i := 0; i < 3; i++ {
		iv := workload.Interactive{ThinkMean: 150 * sim.Millisecond, BurstMean: sched.Work(rate / 250), Rand: rng.Fork()}
		attach(m, f.S, f.SVR4, 31+i, "daemon", 1, iv.Program())
	}

	all := append(append([]*sched.Thread{}, sfq1...), sfq2...)
	sampler := metrics.NewSampler(2*sim.Second, all...)
	sampler.Install(eng, horizon)
	m.Run(horizon)

	// Aggregate per-interval throughput of each node.
	n := len(sampler.Times()) - 1
	agg1 := make([]float64, n)
	agg2 := make([]float64, n)
	for j := range sfq1 {
		for i, d := range sampler.Deltas(j) {
			agg1[i] += float64(d)
		}
	}
	for j := range sfq2 {
		for i, d := range sampler.Deltas(2 + j) {
			agg2[i] += float64(d)
		}
	}

	tbl := metrics.NewTable("t(2s windows)", "SFQ-1 work", "SFQ-2 work", "ratio")
	worst := 0.0
	var ratios []float64
	for i := 0; i < n; i++ {
		ratio := agg2[i] / agg1[i]
		ratios = append(ratios, ratio)
		if abs(ratio-3) > worst {
			worst = abs(ratio - 3)
		}
		tbl.AddRow(i+1, agg1[i], agg2[i], ratio)
	}
	r.Printf("%s", tbl.String())
	if opt.Plot {
		must(metrics.AsciiPlot(&r.out, 10, map[rune][]float64{'1': agg1, '2': agg2}))
	}

	// Paper shape: aggregate throughputs in 1:3 per interval, despite the
	// fluctuating SVR4 usage; and the SVR4 fluctuation is real.
	cvTotal := metrics.CoefficientOfVariation(sumSeries(agg1, agg2))
	r.Printf("per-interval SFQ-2/SFQ-1 worst deviation from 3: %.3f; available-bandwidth CV: %.3f\n", worst, cvTotal)
	r.Check(worst < 0.1, "1:3 split per interval", "worst |ratio-3| = %.3f, want < 0.1", worst)
	r.Check(cvTotal > 0.01, "available bandwidth fluctuates", "CV of SFQ-1+SFQ-2 aggregate = %.3f, want > 0.01", cvTotal)
	return r
}

func sumSeries(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// runFig8b: SFQ-1 (two Dhrystone threads, SFQ leaf) and SVR4 (one
// Dhrystone thread, SVR4 leaf) with equal node weights: both nodes make
// progress and receive equal throughput — unlike the stock SVR4
// scheduler, where a real-time-class thread could monopolize the CPU.
func runFig8b(opt Options) *Result {
	r := &Result{}
	const horizon = 30 * sim.Second
	f := buildFig6(1, 1, 1, 10*sim.Millisecond)
	eng := sim.NewEngine()
	m := cpu.NewMachine(eng, rate, f.S)

	a := attach(m, f.S, f.SFQ1, 1, "sfq-dhry-1", 1, dhryPure().Program())
	b := attach(m, f.S, f.SFQ1, 2, "sfq-dhry-2", 1, dhryPure().Program())
	// The SVR4 thread runs in the RT class: under stock SVR4 it would
	// monopolize the CPU; under the hierarchy it is confined to its node.
	rt := sched.NewThread(3, "svr4-rt-dhry", 1)
	f.SVR4Leaf.SetRealTime(rt, 10)
	must(f.S.Attach(rt, f.SVR4))
	m.Add(rt, dhryPure().Program(), 0)

	// SFQ-2 stays empty; its share goes to the busy nodes (weights 1:1).
	m.Run(horizon)

	node := float64(a.Done + b.Done)
	svr := float64(rt.Done)
	r.Printf("SFQ-1 node work: %.0f (threads %d, %d)  SVR4 node work: %.0f\n",
		node, a.Done, b.Done, svr)
	r.Printf("SFQ-1/SVR4 = %s\n", ratioStr(node, svr))

	r.Check(within(node/svr, 1, 0.02), "equal node throughput",
		"SFQ-1/SVR4 = %.3f, want 1.0 +- 2%%", node/svr)
	r.Check(within(float64(a.Done)/float64(b.Done), 1, 0.02), "fair within SFQ-1",
		"ratio %.3f", float64(a.Done)/float64(b.Done))
	r.Check(svr > 0 && node > 0, "both make progress", "svr=%.0f node=%.0f", svr, node)
	return r
}
