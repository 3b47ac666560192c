package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hsfq/internal/checkpoint"
	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
)

// simJob is one simulation request: the config JSON the program parses,
// already carrying its horizon and seed.
type simJob struct {
	Name    string
	Body    []byte
	Seed    uint64
	Horizon sim.Time
}

// counts are the engine and machine counters of one finished run. They
// are exact: the same job at the same seed repeats them bit for bit.
type counts struct {
	Fired, Scheduled, Pending                       uint64
	Dispatches, Preemptions, Interrupts, Migrations int64
}

func (c *counts) add(o counts) {
	c.Fired += o.Fired
	c.Scheduled += o.Scheduled
	c.Pending += o.Pending
	c.Dispatches += o.Dispatches
	c.Preemptions += o.Preemptions
	c.Interrupts += o.Interrupts
	c.Migrations += o.Migrations
}

// cancelled is every scheduled event that neither fired nor is pending.
func (c counts) cancelled() uint64 { return c.Scheduled - c.Fired - c.Pending }

// jobResult is what one execution of a job yields.
type jobResult struct {
	Digest string
	Counts counts
	Run    time.Duration // host time inside Simulation.Run
}

// runJob executes a job the way sweep.ExecuteConfig does — Parse, Build,
// Run, Digest, Metrics — with a span around each public call. probe, when
// non-nil, is attached as a machine listener before the run.
func runJob(j simJob, tr *tracer, probe *dispatchProbe) (jobResult, error) {
	tr.begin("simconfig.parse")
	cfg, err := simconfig.Parse(bytes.NewReader(j.Body))
	tr.end()
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %w", j.Name, err)
	}
	tr.begin("simconfig.build")
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{Seed: j.Seed})
	tr.end()
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %w", j.Name, err)
	}
	if probe != nil {
		s.Machine.Listen(probe)
	}
	tr.begin("sim.run")
	t0 := time.Now()
	s.Run()
	run := time.Since(t0)
	tr.end()
	tr.begin("sweep.digest")
	digest := sweep.Digest(s)
	tr.end()
	tr.begin("sweep.metrics")
	m := sweep.Metrics(s)
	tr.end()
	if m["work_total"] <= 0 {
		return jobResult{}, fmt.Errorf("%s: run did no work", j.Name)
	}
	return jobResult{Digest: digest, Counts: countsOf(s), Run: run}, nil
}

// addJobSpans fills the self time of each layer runJob spans: the median
// over ops of the layer's total per op.
func addJobSpans(m map[string]float64, tr *tracer) {
	for name, v := range tr.medianSelf("simconfig.parse", "simconfig.build", "sim.run", "sweep.digest", "sweep.metrics") {
		m[name+"_ms"] = v
	}
}

func countsOf(s *simconfig.Simulation) counts {
	st := s.Machine.Stats()
	return counts{
		Fired:       s.Engine.Fired(),
		Scheduled:   s.Engine.Seq(),
		Pending:     uint64(s.Engine.Pending()),
		Dispatches:  st.Dispatches,
		Preemptions: st.Preemptions,
		Interrupts:  st.Interrupts,
		Migrations:  st.Migrations,
	}
}

// ckptProbe is one checkpoint measurement of a job's final state.
type ckptProbe struct {
	Save, Restore time.Duration
	Bytes         int
	RoundTrip     bool // Save → Restore → Save reproduced the bytes
}

// probeCheckpoint runs a job to its horizon, then times checkpoint.Save
// and checkpoint.Restore of the final state taken before Flush, where
// the checkpoint store takes it, and checks that saving the restored
// simulation reproduces the checkpoint byte for byte.
func probeCheckpoint(j simJob) (ckptProbe, error) {
	cfg, err := simconfig.Parse(bytes.NewReader(j.Body))
	if err != nil {
		return ckptProbe{}, err
	}
	s, err := simconfig.Build(cfg, simconfig.BuildOptions{Seed: j.Seed})
	if err != nil {
		return ckptProbe{}, err
	}
	s.Machine.Run(s.Config.Horizon.Time())
	t0 := time.Now()
	data, err := checkpoint.Save(s, checkpoint.Options{})
	save := time.Since(t0)
	if err != nil {
		return ckptProbe{}, fmt.Errorf("%s: save: %w", j.Name, err)
	}
	t0 = time.Now()
	r, err := checkpoint.Restore(data, checkpoint.Options{})
	restore := time.Since(t0)
	if err != nil {
		return ckptProbe{}, fmt.Errorf("%s: restore: %w", j.Name, err)
	}
	again, err := checkpoint.Save(r, checkpoint.Options{})
	if err != nil {
		return ckptProbe{}, fmt.Errorf("%s: save after restore: %w", j.Name, err)
	}
	return ckptProbe{Save: save, Restore: restore, Bytes: len(data), RoundTrip: bytes.Equal(data, again)}, nil
}

// dispatchProbe is a cpu.Listener measuring, per core, the host time
// from a charge to the next dispatch on that core with no idle between:
// the cost of the hierarchy's charge plus its next pick.
type dispatchProbe struct {
	cpu.BaseListener
	epoch   time.Time
	charged []int64 // host ns of the core's last charge; -1 when none is open
	hist    logHist
}

func newDispatchProbe() *dispatchProbe { return &dispatchProbe{epoch: time.Now()} }

// SetNumCores sizes the per-core state; Machine.Listen calls it.
func (p *dispatchProbe) SetNumCores(n int) {
	p.charged = make([]int64, n)
	for i := range p.charged {
		p.charged[i] = -1
	}
}

func (p *dispatchProbe) charge(core int) { p.charged[core] = int64(time.Since(p.epoch)) }

func (p *dispatchProbe) dispatch(core int) {
	if at := p.charged[core]; at >= 0 {
		p.hist.add(int64(time.Since(p.epoch)) - at)
		p.charged[core] = -1
	}
}

func (p *dispatchProbe) idle(core int) { p.charged[core] = -1 }

// OnCharge implements cpu.Listener.
func (p *dispatchProbe) OnCharge(*sched.Thread, sched.Work, sim.Time, bool) { p.charge(0) }

// OnDispatch implements cpu.Listener.
func (p *dispatchProbe) OnDispatch(*sched.Thread, sim.Time) { p.dispatch(0) }

// OnIdle implements cpu.Listener.
func (p *dispatchProbe) OnIdle(sim.Time) { p.idle(0) }

// OnChargeCore implements cpu.SMPListener.
func (p *dispatchProbe) OnChargeCore(core int, _ *sched.Thread, _ sched.Work, _ sim.Time, _ bool) {
	p.charge(core)
}

// OnDispatchCore implements cpu.SMPListener.
func (p *dispatchProbe) OnDispatchCore(core int, _ *sched.Thread, _ sim.Time) { p.dispatch(core) }

// OnIdleCore implements cpu.SMPListener.
func (p *dispatchProbe) OnIdleCore(core int, _ sim.Time) { p.idle(core) }

// shippedConfigs reads every examples/configs/*.json in name order.
func shippedConfigs() (names []string, cfgs []simconfig.Config, err error) {
	paths, err := filepath.Glob(filepath.Join("examples", "configs", "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no examples/configs/*.json (run from the repository root)")
	}
	sort.Strings(paths)
	for _, p := range paths {
		c, err := parseFile(p, simconfig.Parse)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, filepath.Base(p))
		cfgs = append(cfgs, c)
	}
	return names, cfgs, nil
}

// smpBase reads the examples/sweeps/smp.json base scenario.
func smpBase() (simconfig.Config, error) {
	spec, err := parseFile(filepath.Join("examples", "sweeps", "smp.json"), sweep.ParseSpec)
	return spec.Base, err
}

func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := parse(bytes.NewReader(b))
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// horizonOf mirrors simconfig.Build's horizon default.
func horizonOf(c simconfig.Config) sim.Time {
	if c.Horizon == 0 {
		return 30 * sim.Second
	}
	return c.Horizon.Time()
}

// makeJob fixes a config's horizon and seed and encodes it as a request
// body.
func makeJob(name string, c simconfig.Config, horizon sim.Time, seed uint64) (simJob, error) {
	c.Horizon = simconfig.Duration(horizon)
	c.Seed = seed
	b, err := json.Marshal(c)
	if err != nil {
		return simJob{}, err
	}
	return simJob{Name: name, Body: b, Seed: seed, Horizon: horizon}, nil
}

// deriveSeed maps (workload seed, stream, index) to a non-zero simulation
// seed with the splitmix64 finalizer, so nearby workload seeds give
// unrelated simulation seeds.
func deriveSeed(seed uint64, stream, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i) + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
