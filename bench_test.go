package hsfq_test

import (
	"fmt"
	"testing"

	"hsfq/internal/core"
	"hsfq/internal/cpu"
	"hsfq/internal/experiments"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// ---- Figure regeneration benchmarks: one per table/figure of the
// paper's evaluation. Each iteration re-runs the full experiment
// (simulation + shape checks), so ns/op measures the cost of reproducing
// that figure end to end.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Options{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			b.Fatalf("%s failed shape checks:\n%s", id, res.Summary())
		}
	}
}

func BenchmarkFig1MPEGTrace(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig3Trace(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig5TimeSharing(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig7aOverhead(b *testing.B)     { benchExperiment(b, "fig7a") }
func BenchmarkFig7bDepth(b *testing.B)        { benchExperiment(b, "fig7b") }
func BenchmarkFig8aHierarchy(b *testing.B)    { benchExperiment(b, "fig8a") }
func BenchmarkFig8bIsolation(b *testing.B)    { benchExperiment(b, "fig8b") }
func BenchmarkFig9RealTime(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10Video(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11Dynamic(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkAblationFairness(b *testing.B)  { benchExperiment(b, "ablation-fairness") }
func BenchmarkAblationDelay(b *testing.B)     { benchExperiment(b, "ablation-delay") }
func BenchmarkAblationLottery(b *testing.B)   { benchExperiment(b, "ablation-lottery") }
func BenchmarkAblationBounds(b *testing.B)    { benchExperiment(b, "ablation-bounds") }
func BenchmarkAblationInversion(b *testing.B) { benchExperiment(b, "ablation-inversion") }
func BenchmarkAblationEBF(b *testing.B)       { benchExperiment(b, "ablation-ebf") }

// ---- A4 ablation: scheduling cost of the hierarchy's hot path
// (hsfq_schedule + hsfq_update) as fan-out and depth grow. The paper
// argues the per-decision cost is O(log n) in the fan-out and linear in
// the depth, and negligible against multi-millisecond quanta.

// BenchmarkScheduleFanout measures one Pick+Charge through the root with
// n runnable leaf children.
func BenchmarkScheduleFanout(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		b.Run(fmt.Sprintf("children-%d", n), func(b *testing.B) {
			s := core.NewStructure()
			for i := 0; i < n; i++ {
				leaf := sched.NewSFQ(10 * sim.Millisecond)
				id, err := s.Mknod(fmt.Sprintf("c%d", i), core.RootID, float64(i%7+1), leaf)
				if err != nil {
					b.Fatal(err)
				}
				t := sched.NewThread(i+1, "t", 1)
				if err := s.Attach(t, id); err != nil {
					b.Fatal(err)
				}
				s.Enqueue(t, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := s.Pick(0)
				s.Charge(t, 1_000_000, 0, true)
			}
		})
	}
}

// BenchmarkScheduleDepth measures one Pick+Charge through a chain of
// intermediate nodes, the Fig. 7(b) dimension.
func BenchmarkScheduleDepth(b *testing.B) {
	for _, depth := range []int{0, 5, 10, 30} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			s := core.NewStructure()
			parent := core.RootID
			for d := 0; d < depth; d++ {
				id, err := s.Mknod(fmt.Sprintf("d%d", d), parent, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				parent = id
			}
			leafID, err := s.Mknod("leaf", parent, 1, sched.NewSFQ(10*sim.Millisecond))
			if err != nil {
				b.Fatal(err)
			}
			t := sched.NewThread(1, "t", 1)
			if err := s.Attach(t, leafID); err != nil {
				b.Fatal(err)
			}
			s.Enqueue(t, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := s.Pick(0)
				s.Charge(got, 1_000_000, 0, true)
			}
		})
	}
}

// ---- Leaf scheduler hot paths: Pick+Charge per algorithm with 16
// runnable threads, the comparison behind §3's computational-efficiency
// claim.

func BenchmarkLeafSchedulers(b *testing.B) {
	// Every registered leaf, in name order, at its default parameters
	// (10 ms quantum, 25 ms for svr4, a 100 MIPS machine).
	for _, name := range sched.Names() {
		b.Run(name, func(b *testing.B) {
			s, err := sched.New(name, sched.LeafConfig{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				t := sched.NewThread(i+1, "t", float64(i%5+1))
				t.Period = sim.Time(i+1) * 10 * sim.Millisecond
				s.Enqueue(t, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			now := sim.Time(0)
			for i := 0; i < b.N; i++ {
				t := s.Pick(now)
				s.Charge(t, 1_000_000, now, true)
				now += sim.Millisecond
			}
		})
	}
}

// BenchmarkMachineSimulation measures simulated-seconds-per-real-second
// of the full machine: the Fig. 6 structure with six threads.
func BenchmarkMachineSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.NewStructure()
		id1, _ := s.Mknod("a", core.RootID, 2, sched.NewSFQ(10*sim.Millisecond))
		id2, _ := s.Mknod("b", core.RootID, 6, sched.NewSFQ(10*sim.Millisecond))
		m := cpu.NewMachine(sim.NewEngine(), cpu.DefaultRate, s)
		for j := 0; j < 3; j++ {
			t1 := sched.NewThread(j+1, "t", 1)
			if err := s.Attach(t1, id1); err != nil {
				b.Fatal(err)
			}
			m.Add(t1, cpu.Forever(cpu.Compute(100_000_000)), 0)
			t2 := sched.NewThread(j+10, "u", 1)
			if err := s.Attach(t2, id2); err != nil {
				b.Fatal(err)
			}
			m.Add(t2, cpu.Forever(cpu.Compute(100_000_000)), 0)
		}
		m.Run(10 * sim.Second)
	}
}

// BenchmarkPacketAlgorithms measures packet-level Arrive+Dequeue+Complete
// across the fair queuing family, in a fixed order, at a standing
// backlog of 64 preallocated packets spread over every flow (cyclePacket
// re-queues each served packet), so an op is the queueing work alone.
func BenchmarkPacketAlgorithms(b *testing.B) {
	weights := []float64{1, 2, 3, 4}
	for _, alg := range packetAlgorithms(weights) {
		b.Run(alg.Name(), func(b *testing.B) {
			queueBacklog(alg, len(weights))
			b.ReportAllocs()
			b.ResetTimer()
			now := sim.Time(0)
			for i := 0; i < b.N; i++ {
				cyclePacket(alg, now)
				now += sim.Millisecond
			}
		})
	}
}

func BenchmarkAblationProtection(b *testing.B) { benchExperiment(b, "ablation-protection") }

func BenchmarkAblationRecursive(b *testing.B) { benchExperiment(b, "ablation-recursive") }

func BenchmarkAblationLeaf(b *testing.B) { benchExperiment(b, "ablation-leaf") }
