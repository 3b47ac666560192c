package main

import (
	"fmt"
	"os"
	"time"

	"hsfq/internal/sim"
)

// horizonStretch multiplies every sim-configs horizon so that
// Simulation.Run, not Build, dominates an op.
const horizonStretch = 10

// smpPolicies are the placement policies the SMP sweep base runs under.
var smpPolicies = []string{"partitioned", "global", "steal"}

// simConfigJobs is the sim-configs job list: every shipped config, then
// the SMP sweep base at four cores under each policy, at horizon ×
// horizonStretch and seeds derived from the workload seed.
func simConfigJobs(seed uint64) ([]simJob, error) {
	names, cfgs, err := shippedConfigs()
	if err != nil {
		return nil, err
	}
	base, err := smpBase()
	if err != nil {
		return nil, err
	}
	for _, p := range smpPolicies {
		c := base
		c.Cores, c.Policy = 4, p
		names = append(names, "smp.json@4-"+p)
		cfgs = append(cfgs, c)
	}
	jobs := make([]simJob, len(cfgs))
	for i, c := range cfgs {
		if jobs[i], err = makeJob(names[i], c, horizonOf(c)*horizonStretch, deriveSeed(seed, 0, i)); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// simConfigs is a set-up sim-configs workload: its jobs plus the digest
// and counters of each, taken from the warm-up op, that every later op
// must reproduce.
type simConfigs struct {
	jobs   []simJob
	want   []jobResult
	simNs  sim.Time // simulated time one op covers
	counts counts   // counters of one op, summed over jobs
}

func newSimConfigs(seed uint64) (*simConfigs, error) {
	jobs, err := simConfigJobs(seed)
	if err != nil {
		return nil, err
	}
	sc := &simConfigs{jobs: jobs}
	for _, j := range jobs {
		r, err := runJob(j, nil, nil)
		if err != nil {
			return nil, err
		}
		sc.want = append(sc.want, r)
		sc.simNs += j.Horizon
		sc.counts.add(r.Counts)
	}
	return sc, nil
}

// op runs every job once and checks its digest and counters against the
// warm-up op. It returns the host time spent inside Simulation.Run.
func (sc *simConfigs) op(tr *tracer, probe *dispatchProbe) (time.Duration, error) {
	var run time.Duration
	for k, j := range sc.jobs {
		r, err := runJob(j, tr, probe)
		if err != nil {
			return 0, err
		}
		if r.Digest != sc.want[k].Digest || r.Counts != sc.want[k].Counts {
			return 0, fmt.Errorf("%s at seed %d: digest %s counts %+v, first op gave %s %+v",
				j.Name, j.Seed, r.Digest, r.Counts, sc.want[k].Digest, sc.want[k].Counts)
		}
		run += r.Run
	}
	return run, nil
}

// Traced sim-configs ops cycle through three modes: untraced, spans
// around every layer call, and the dispatch-latency listener alone.
const (
	modePlain = iota
	modeSpans
	modeProbe
)

// checkpointRounds is how many times a traced run checkpoints each job's
// final state.
const checkpointRounds = 3

func runSimConfigs(opt options) (report, error) {
	sc, setups, err := repeatSetup(func() (*simConfigs, error) { return newSimConfigs(opt.Seed) }, nil)
	if err != nil {
		return report{}, err
	}
	rep := report{Metrics: map[string]float64{}}
	if !opt.Trace {
		loop := runClosedLoop(opt.Window, 1, func(int, int) error {
			_, err := sc.op(nil, nil)
			return err
		})
		loop.endToEnd(rep.Metrics, setups)
		rep.Attempted, rep.Failed = loop.attempted(), loop.failed
		return rep, nil
	}

	tr := newTracer()
	probe := newDispatchProbe()
	var runs []float64 // Run host ns per untraced op
	loop := runClosedLoop(opt.Window, 3, func(i, mode int) error {
		switch mode {
		case modeSpans:
			tr.beginOp("op", i)
			defer tr.end()
			_, err := sc.op(tr, nil)
			return err
		case modeProbe:
			_, err := sc.op(nil, probe)
			return err
		}
		run, err := sc.op(nil, nil)
		runs = append(runs, float64(run))
		return err
	})
	rep.Attempted, rep.Failed = loop.attempted(), loop.failed
	m := rep.Metrics
	addJobSpans(m, tr)
	m["trace.residual_ms"] = tr.medianSelf("op")["op"]
	m["trace.overhead_ms"] = median(loop.modes[modeSpans]) - median(loop.modes[modePlain])
	runNs := median(runs)
	m["sim_ns_per_wall_ns"] = float64(sc.simNs) / runNs
	addCounts(m, sc.counts, runNs)
	m["cpu.charge_to_dispatch_ns_p50"] = probe.hist.quantile(0.5)

	var saves, restores, sizes []float64
	for round := 0; round < checkpointRounds; round++ {
		for _, j := range sc.jobs {
			rep.Attempted++
			p, err := probeCheckpoint(j)
			if err == nil && !p.RoundTrip {
				err = fmt.Errorf("%s: save after restore differs from the checkpoint", j.Name)
			}
			if err != nil {
				rep.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: checkpoint: %v\n", err)
				continue
			}
			saves = append(saves, ms(p.Save))
			restores = append(restores, ms(p.Restore))
			sizes = append(sizes, float64(p.Bytes))
		}
	}
	m["checkpoint.save_ms"] = median(saves)
	m["checkpoint.restore_ms"] = median(restores)
	m["checkpoint.bytes"] = sum(sizes) / checkpointRounds
	writeSpans(opt, tr)
	return rep, nil
}

// addCounts fills the counter metrics of one op's worth of runs; runNs is
// the host time those runs took.
func addCounts(m map[string]float64, c counts, runNs float64) {
	m["sim.events_fired"] = float64(c.Fired)
	m["sim.events_scheduled"] = float64(c.Scheduled)
	m["sim.events_cancelled"] = float64(c.cancelled())
	m["sim.events_per_dispatch"] = float64(c.Fired) / float64(c.Dispatches)
	m["sim.host_ns_per_event"] = runNs / float64(c.Fired)
	m["cpu.dispatches"] = float64(c.Dispatches)
	m["cpu.preemptions"] = float64(c.Preemptions)
	m["cpu.interrupts"] = float64(c.Interrupts)
	m["cpu.migrations"] = float64(c.Migrations)
}
