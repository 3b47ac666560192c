package experiments

import (
	"hsfq/internal/core"
	"hsfq/internal/cpu"
	"hsfq/internal/fcserver"
	"hsfq/internal/metrics"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

func init() {
	register("ablation-recursive", "A9: recursive FC guarantee down a three-level hierarchy (§3)", runAblationRecursive)
}

// runAblationRecursive validates the paper's recursion argument: "if SFQ
// is used for hierarchical partitioning and if the CPU is an FC(EBF)
// server, then each of the sub-classes of the root class are FC(EBF)
// servers. Using this argument recursively, we conclude that ... each of
// the sub-classes are also FC(EBF) servers, the parameters of which can
// be derived using (6) and (7)."
//
// Structure: root -> {A (w=1), B (w=3)}; B -> {B1 (w=1), B2 (w=2)}; every
// leaf holds two equal CPU-bound threads. The CPU loses 10% to periodic
// interrupts (an FC server). Eq. 6 is applied once to get each top class's
// FC parameters, and again inside B to get B1's and B2's; all five node
// traces must conform to their derived models.
func runAblationRecursive(opt Options) *Result {
	r := &Result{}
	const horizon = 30 * sim.Second
	quantum := 10 * sim.Millisecond

	s := core.NewStructure()
	idA, err := s.Mknod("A", core.RootID, 1, sched.NewSFQ(quantum))
	must(err)
	idB, err := s.Mknod("B", core.RootID, 3, nil)
	must(err)
	idB1, err := s.Mknod("B1", idB, 1, sched.NewSFQ(quantum))
	must(err)
	idB2, err := s.Mknod("B2", idB, 2, sched.NewSFQ(quantum))
	must(err)

	eng := sim.NewEngine()
	m := cpu.NewMachine(eng, rate, s)
	m.AddInterrupts(&cpu.PeriodicInterrupts{Period: 10 * sim.Millisecond, Service: sim.Millisecond})

	attachPair := func(leaf core.NodeID, base int) [2]*sched.Thread {
		var out [2]*sched.Thread
		for i := 0; i < 2; i++ {
			t := sched.NewThread(base+i, "t", 1)
			must(s.Attach(t, leaf))
			m.Add(t, cpu.Forever(cpu.Compute(1_000_000)), 0)
			out[i] = t
		}
		return out
	}
	aThreads := attachPair(idA, 10)
	b1Threads := attachPair(idB1, 20)
	b2Threads := attachPair(idB2, 30)

	all := []*sched.Thread{aThreads[0], aThreads[1], b1Threads[0], b1Threads[1], b2Threads[0], b2Threads[1]}
	col := fcserver.NewCollector(all...)
	m.Listen(col)
	m.Run(horizon)

	// Node-level service traces.
	traceA := fcserver.MergePoints(col.Points(aThreads[0]), col.Points(aThreads[1]))
	traceB1 := fcserver.MergePoints(col.Points(b1Threads[0]), col.Points(b1Threads[1]))
	traceB2 := fcserver.MergePoints(col.Points(b2Threads[0]), col.Points(b2Threads[1]))
	traceB := fcserver.MergePoints(traceB1, traceB2)

	// Level 0: the CPU under 10% interrupt load is FC(0.9C, C*1ms).
	cpuFC := fcserver.FC{Rate: 0.9 * float64(rate), Burst: float64(rate) / 1000}
	lmax := float64(rate) * quantum.Seconds()

	// Level 1: Eq. 6 at the root (weights 1:3, two competitors each way;
	// each node's quantum at the root level is one leaf quantum).
	fcA := fcserver.SFQThroughput(cpuFC, 0.25*cpuFC.Rate, lmax, []float64{lmax})
	fcB := fcserver.SFQThroughput(cpuFC, 0.75*cpuFC.Rate, lmax, []float64{lmax})

	// Level 2: Eq. 6 again, inside B (weights 1:2), with B's own FC
	// parameters as the server.
	fcB1 := fcserver.SFQThroughput(fcB, fcB.Rate/3, lmax, []float64{lmax})
	fcB2 := fcserver.SFQThroughput(fcB, 2*fcB.Rate/3, lmax, []float64{lmax})

	tbl := metrics.NewTable("node", "level", "FC rate", "FC burst", "worst deficit")
	allOK := true
	check := func(name string, level int, fc fcserver.FC, trace []fcserver.ServicePoint) {
		d := fc.WorstDeficit(trace)
		if d > 1 {
			allOK = false
		}
		tbl.AddRow(name, level, fc.Rate, fc.Burst, d)
	}
	check("A", 1, fcA, traceA)
	check("B", 1, fcB, traceB)
	check("B1", 2, fcB1, traceB1)
	check("B2", 2, fcB2, traceB2)
	r.Printf("%s", tbl.String())

	r.Check(allOK, "recursive Eq.6 holds at every level",
		"all four node traces conform to their derived FC parameters")
	// Sanity: the shares themselves are right.
	workA := float64(aThreads[0].Done + aThreads[1].Done)
	workB2 := float64(b2Threads[0].Done + b2Threads[1].Done)
	r.Check(within(workB2/workA, 2.0, 0.02), "B2 gets 2x A",
		"B2/A = %.3f (B2: 2/3 of 3/4; A: 1/4)", workB2/workA)
	return r
}
