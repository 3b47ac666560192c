// Package simconfig builds a complete simulation — scheduling structure,
// machine, interrupt sources, threads and their programs — from a JSON
// description, the configuration surface of cmd/hsfqsim.
//
// A minimal config:
//
//	{
//	  "rate_mips": 100,
//	  "horizon": "30s",
//	  "nodes": [
//	    {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "10ms"},
//	    {"path": "/be/user1", "weight": 6, "leaf": "svr4"}
//	  ],
//	  "threads": [
//	    {"name": "dec", "leaf": "/soft", "weight": 5,
//	     "program": {"kind": "mpeg", "frames": 100000, "loop": true}},
//	    {"name": "hog", "leaf": "/be/user1",
//	     "program": {"kind": "loop"}}
//	  ]
//	}
package simconfig

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"hsfq/internal/core"
	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
	"hsfq/internal/workload"
)

// Duration is a sim.Time that unmarshals from Go duration strings
// ("10ms") or bare nanosecond numbers.
type Duration sim.Time

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("simconfig: bad duration %q: %w", s, err)
		}
		*d = Duration(v.Nanoseconds())
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("simconfig: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(n)
	return nil
}

// Time converts to the simulator unit.
func (d Duration) Time() sim.Time { return sim.Time(d) }

// Config is the top-level simulation description.
type Config struct {
	// RateMIPS is the CPU speed; 0 means 100 MIPS.
	RateMIPS int64 `json:"rate_mips"`
	// Horizon is how long to simulate; 0 means 30 s.
	Horizon Duration `json:"horizon"`
	// Seed drives all randomness; same seed, same run.
	Seed uint64 `json:"seed"`
	// Cores is the machine's core count; 0 means 1. The new multicore
	// fields all carry omitempty so that single-core configs marshal to
	// exactly the pre-SMP JSON — checkpoint embeddings and sweep job keys
	// are unchanged.
	Cores int `json:"cores,omitempty"`
	// Policy selects how cores share scheduling state: "partitioned"
	// (default; one hierarchy per core, static placement), "global" (one
	// shared hierarchy feeding all cores), or "steal" (partitioned plus
	// work stealing). Ignored at cores <= 1.
	Policy string `json:"policy,omitempty"`
	// SwitchCost is CPU time charged on every dispatch; MigrationCost is
	// charged additionally when the dispatched thread last ran on a
	// different core. Both default to 0, the paper's free-dispatch
	// idealization.
	SwitchCost    Duration `json:"switch_cost,omitempty"`
	MigrationCost Duration `json:"migration_cost,omitempty"`
	// Nodes describe the scheduling structure; parents are created
	// implicitly with weight 1 (override by listing them first).
	Nodes []NodeConfig `json:"nodes"`
	// Threads to run.
	Threads []ThreadConfig `json:"threads"`
	// Interrupts optionally load the CPU at top priority.
	Interrupts []InterruptConfig `json:"interrupts"`
}

// NodeConfig describes one node of the scheduling structure.
type NodeConfig struct {
	Path   string  `json:"path"`
	Weight float64 `json:"weight"`
	// Leaf selects a scheduler by registry name (any of sched.Names():
	// "sfq", "rr", "fifo", "priority", "reserves", "edf", "rm", "svr4",
	// "lottery", "stride", "eevdf", "mlfq", "drr"); empty means
	// intermediate node.
	Leaf    string   `json:"leaf"`
	Quantum Duration `json:"quantum"`
	// Levels and Aging parameterize multilevel feedback leaves (mlfq):
	// the priority-level count and the starvation-boost wait bound. Zero
	// selects the algorithm defaults; other leaves ignore them. Both carry
	// omitempty so pre-existing configs marshal byte-identically
	// (checkpoint embeddings and sweep job keys are unchanged).
	Levels int      `json:"levels,omitempty"`
	Aging  Duration `json:"aging,omitempty"`
}

// ThreadConfig describes one thread.
type ThreadConfig struct {
	Name    string        `json:"name"`
	Leaf    string        `json:"leaf"`
	Weight  float64       `json:"weight"`
	Start   Duration      `json:"start"`
	Program ProgramConfig `json:"program"`
	// RTPriority places the thread in an SVR4 leaf's real-time class.
	RTPriority *int `json:"rt_priority"`
	// ReserveCost/ReservePeriod grant the thread a capacity reserve in a
	// "reserves" leaf: ReserveCost of CPU time every ReservePeriod.
	ReserveCost   Duration `json:"reserve_cost"`
	ReservePeriod Duration `json:"reserve_period"`
	// Affinity pins the thread to a home core on a multicore machine;
	// unset threads are placed round-robin (thread index mod cores).
	Affinity *int `json:"affinity,omitempty"`
	// Period declares the thread's job period to deadline-driven leaves
	// (edf assigns each job the deadline release+Period, rm ranks by
	// period). It is a declaration, not a behavior: nothing checks that
	// the program's actual release pattern honors it, which is exactly
	// the lying-task surface internal/adversary's deadline-inflation
	// attack exercises. Zero means background (no deadline). Carries
	// omitempty so pre-existing configs marshal byte-identically.
	Period Duration `json:"period,omitempty"`
}

// ProgramConfig describes a thread's behaviour.
type ProgramConfig struct {
	// Kind: "loop", "dhrystone", "mpeg", "trace", "periodic",
	// "interactive", "onoff".
	Kind string `json:"kind"`
	// trace: path to a recorded per-item cost file (workload.ReadCosts
	// format); played through a Decoder, honoring Loop.
	File string `json:"file"`
	// loop/dhrystone: work per burst (instructions); 0 = 10 ms worth.
	Burst int64 `json:"burst"`
	// dhrystone: fault cadence.
	FaultEvery int      `json:"fault_every"`
	FaultSleep Duration `json:"fault_sleep"`
	// mpeg: trace length and looping.
	Frames int  `json:"frames"`
	Loop   bool `json:"loop"`
	// periodic: cost per period.
	Period Duration `json:"period"`
	Cost   Duration `json:"cost"`
	// interactive: think/burst means.
	ThinkMean Duration `json:"think_mean"`
	// onoff: bursts per on-phase and off duration.
	Bursts int      `json:"bursts"`
	Off    Duration `json:"off"`
}

// InterruptConfig describes an interrupt source.
type InterruptConfig struct {
	// Kind: "periodic", "poisson", "burst".
	Kind    string   `json:"kind"`
	Period  Duration `json:"period"`
	Service Duration `json:"service"`
	// poisson: arrivals per second and mean service.
	RatePerSec float64 `json:"rate_per_sec"`
	// burst: interrupts per burst.
	Count int `json:"count"`
}

// Simulation is a ready-to-run build of a Config.
type Simulation struct {
	Config  Config
	Engine  *sim.Engine
	Machine *cpu.Machine
	// Structure is Structures[0]: the machine's only scheduling structure
	// on a single-core build or under the global policy.
	Structure *core.Structure
	// Structures holds every scheduling structure the build created — one
	// per core for the partitioned and steal policies, one shared
	// otherwise. All of them are part of a checkpoint's mutable state.
	Structures []*core.Structure
	Threads    []*sched.Thread
	// Periodics exposes deadline-tracking programs by thread name.
	Periodics map[string]*workload.Periodic
	// Decoders exposes frame-counting programs by thread name.
	Decoders map[string]*workload.Decoder
}

// Parse decodes a JSON config.
func Parse(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("simconfig: %w", err)
	}
	return c, nil
}

// programKinds mirrors the switch in buildProgram; Validate checks
// against it so a bad kind is reported before any simulation state is
// built. Interrupt kinds are validated in the per-kind switch in
// Validate, which also enforces each source's parameter constraints.
var programKinds = map[string]bool{
	"": true, "loop": true, "dhrystone": true, "mpeg": true,
	"trace": true, "periodic": true, "interactive": true, "onoff": true,
}

// FieldError is a validation failure located by the JSON field path of
// the offending value ("threads[2].leaf"), so request-scoped callers —
// the hsfqd daemon's 400 responses in particular — can point clients at
// the exact field without parsing the message. Error() keeps the
// human-readable form CLI tools print.
type FieldError struct {
	// Field is the JSON path of the bad value, e.g. "nodes[0].leaf".
	Field string
	// Msg is the human-readable description, without the package prefix.
	Msg string
}

func (e *FieldError) Error() string { return "simconfig: " + e.Msg }

func fieldErr(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the config's structural consistency — at least one
// node, registered leaf/program/interrupt kinds, thread names present and
// unique, every thread attached to a declared leaf — without building
// anything. Build calls it; sweep engines call it once per grid point
// before instantiating the point at many seeds. Failures are *FieldError
// values carrying the JSON path of the offending field.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fieldErr("nodes", "no nodes")
	}
	if c.RateMIPS < 0 {
		return fieldErr("rate_mips", "negative rate %d", c.RateMIPS)
	}
	if c.Horizon < 0 {
		return fieldErr("horizon", "negative horizon %d", c.Horizon)
	}
	if c.Cores < 0 {
		return fieldErr("cores", "negative core count %d", c.Cores)
	}
	if _, err := cpu.ParsePolicy(c.Policy); err != nil {
		return fieldErr("policy", "unknown policy %q (have partitioned, global, steal)", c.Policy)
	}
	if c.SwitchCost < 0 {
		return fieldErr("switch_cost", "negative switch cost %d", c.SwitchCost)
	}
	if c.MigrationCost < 0 {
		return fieldErr("migration_cost", "negative migration cost %d", c.MigrationCost)
	}
	leaves := map[string]bool{}
	for i, nc := range c.Nodes {
		if nc.Path == "" {
			return fieldErr(fmt.Sprintf("nodes[%d].path", i), "node with empty path")
		}
		if !validWeight(nc.Weight) {
			return fieldErr(fmt.Sprintf("nodes[%d].weight", i), "node %q: weight must be a finite non-negative number, got %v", nc.Path, nc.Weight)
		}
		if nc.Quantum < 0 {
			return fieldErr(fmt.Sprintf("nodes[%d].quantum", i), "node %q: negative quantum", nc.Path)
		}
		// The mlfq/drr constructors panic on out-of-range level geometry;
		// every such combination must be a validation error instead
		// (FuzzParseConfig enforces the equivalence).
		if nc.Levels < 0 || nc.Levels > sched.MLFQMaxLevels {
			return fieldErr(fmt.Sprintf("nodes[%d].levels", i), "node %q: levels %d outside [0, %d]", nc.Path, nc.Levels, sched.MLFQMaxLevels)
		}
		if nc.Aging < 0 {
			return fieldErr(fmt.Sprintf("nodes[%d].aging", i), "node %q: negative aging bound", nc.Path)
		}
		if nc.Leaf == "mlfq" && sched.MLFQQuantumOverflows(nc.Levels, nc.Quantum.Time()) {
			return fieldErr(fmt.Sprintf("nodes[%d].quantum", i), "node %q: quantum %v cannot be doubled across %d mlfq levels", nc.Path, nc.Quantum.Time(), nc.Levels)
		}
		if nc.Leaf == "drr" && sched.DRRQuantumOverflows(nc.Quantum.Time()) {
			return fieldErr(fmt.Sprintf("nodes[%d].quantum", i), "node %q: quantum %v overflows drr's adaptation band", nc.Path, nc.Quantum.Time())
		}
		if nc.Leaf != "" {
			if !sched.Known(nc.Leaf) {
				return fieldErr(fmt.Sprintf("nodes[%d].leaf", i), "node %q: unknown leaf scheduler %q (have %v)", nc.Path, nc.Leaf, sched.Names())
			}
			// The global and stealing policies remove a running thread
			// from the shared hierarchy and re-enqueue it before charging;
			// only position-independent leaves survive that protocol.
			if c.NumCores() > 1 && c.Policy != "" && c.Policy != "partitioned" && !sched.SMPSafe(nc.Leaf) {
				return fieldErr(fmt.Sprintf("nodes[%d].leaf", i),
					"node %q: leaf %q does not support the %q policy (dequeue-safe leaves: %v); use partitioned placement",
					nc.Path, nc.Leaf, c.Policy, sched.SMPSafeNames())
			}
			leaves[nc.Path] = true
		}
	}
	names := map[string]bool{}
	for i, tc := range c.Threads {
		if tc.Name == "" {
			return fieldErr(fmt.Sprintf("threads[%d].name", i), "thread %d has no name", i)
		}
		if names[tc.Name] {
			return fieldErr(fmt.Sprintf("threads[%d].name", i), "duplicate thread name %q", tc.Name)
		}
		names[tc.Name] = true
		if !leaves[tc.Leaf] {
			return fieldErr(fmt.Sprintf("threads[%d].leaf", i), "thread %q: no leaf %q", tc.Name, tc.Leaf)
		}
		if !validWeight(tc.Weight) {
			return fieldErr(fmt.Sprintf("threads[%d].weight", i), "thread %q: weight must be a finite non-negative number, got %v", tc.Name, tc.Weight)
		}
		if tc.Start < 0 {
			return fieldErr(fmt.Sprintf("threads[%d].start", i), "thread %q: negative start time", tc.Name)
		}
		if tc.RTPriority != nil && (*tc.RTPriority < 0 || *tc.RTPriority >= sched.RTLevels) {
			return fieldErr(fmt.Sprintf("threads[%d].rt_priority", i), "thread %q: rt_priority %d outside [0, %d)", tc.Name, *tc.RTPriority, sched.RTLevels)
		}
		if tc.ReserveCost < 0 || tc.ReservePeriod < 0 {
			return fieldErr(fmt.Sprintf("threads[%d].reserve_cost", i), "thread %q: negative reserve cost or period", tc.Name)
		}
		if tc.ReserveCost > 0 && tc.ReservePeriod <= 0 {
			return fieldErr(fmt.Sprintf("threads[%d].reserve_period", i), "thread %q: reserve cost without a positive period", tc.Name)
		}
		if tc.Affinity != nil && (*tc.Affinity < 0 || *tc.Affinity >= c.NumCores()) {
			return fieldErr(fmt.Sprintf("threads[%d].affinity", i), "thread %q: affinity %d outside [0, %d)", tc.Name, *tc.Affinity, c.NumCores())
		}
		if tc.Period < 0 {
			return fieldErr(fmt.Sprintf("threads[%d].period", i), "thread %q: negative period", tc.Name)
		}
		if !programKinds[tc.Program.Kind] {
			return fieldErr(fmt.Sprintf("threads[%d].program.kind", i), "thread %q: unknown program %q", tc.Name, tc.Program.Kind)
		}
		if err := tc.Program.validate(fmt.Sprintf("threads[%d].program", i), tc.Name); err != nil {
			return err
		}
	}
	for i, ic := range c.Interrupts {
		// The cpu interrupt sources panic on misconfiguration — they treat
		// it as a programming error — so every constraint they enforce
		// must be rejected here, where bad input is a 400, not a crash.
		switch ic.Kind {
		case "periodic":
			if ic.Period <= 0 || ic.Service < 0 {
				return fieldErr(fmt.Sprintf("interrupts[%d].period", i), "periodic interrupt needs a positive period and non-negative service")
			}
		case "poisson":
			if !(ic.RatePerSec > 0) || math.IsInf(ic.RatePerSec, 1) {
				return fieldErr(fmt.Sprintf("interrupts[%d].rate_per_sec", i), "poisson interrupt rate must be a finite positive number, got %v", ic.RatePerSec)
			}
			if ic.Service <= 0 {
				return fieldErr(fmt.Sprintf("interrupts[%d].service", i), "poisson interrupt needs a positive mean service time")
			}
		case "burst":
			if ic.Period <= 0 || ic.Count <= 0 || ic.Service <= 0 {
				return fieldErr(fmt.Sprintf("interrupts[%d]", i), "burst interrupt needs positive period, count, and service")
			}
		default:
			return fieldErr(fmt.Sprintf("interrupts[%d].kind", i), "unknown interrupt kind %q", ic.Kind)
		}
	}
	return nil
}

// NumCores returns the effective core count: Cores, with 0 meaning 1.
func (c Config) NumCores() int {
	if c.Cores <= 0 {
		return 1
	}
	return c.Cores
}

// StructureOf returns the structure t is attached to, or nil for a thread
// the build does not know.
func (s *Simulation) StructureOf(t *sched.Thread) *core.Structure {
	for _, st := range s.Structures {
		if st.LeafOf(t) != nil {
			return st
		}
	}
	return nil
}

// validWeight rejects the values that would panic deep inside the
// scheduler layer: negatives (sched.NewThread panics), NaN and Inf
// (virtual-time tags would stop ordering). Zero is fine — Build treats it
// as "default 1".
func validWeight(w float64) bool {
	return w >= 0 && !math.IsInf(w, 1)
}

func (p ProgramConfig) validate(field, thread string) error {
	if p.Burst < 0 {
		return fieldErr(field+".burst", "thread %q: negative burst", thread)
	}
	if p.FaultEvery < 0 || p.FaultSleep < 0 {
		return fieldErr(field+".fault_every", "thread %q: negative fault cadence", thread)
	}
	if p.Frames < 0 {
		return fieldErr(field+".frames", "thread %q: negative frame count", thread)
	}
	if p.Period < 0 || p.Cost < 0 {
		return fieldErr(field+".period", "thread %q: negative period or cost", thread)
	}
	if p.ThinkMean < 0 {
		return fieldErr(field+".think_mean", "thread %q: negative think time", thread)
	}
	if p.Bursts < 0 || p.Off < 0 {
		return fieldErr(field+".bursts", "thread %q: negative on-off shape", thread)
	}
	return nil
}

// BuildOptions parameterize one instantiation of a parsed Config.
type BuildOptions struct {
	// Seed, when non-zero, overrides the config's seed, so one parsed
	// Config can be instantiated at many seeds without re-reading JSON.
	Seed uint64
}

// Build constructs the simulation described by c at the options' seed.
func Build(c Config, opt BuildOptions) (*Simulation, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opt.Seed != 0 {
		c.Seed = opt.Seed
	}
	if c.RateMIPS == 0 {
		c.RateMIPS = 100
	}
	if c.Horizon == 0 {
		c.Horizon = Duration(30 * sim.Second)
	}
	rate := cpu.MIPS(c.RateMIPS)
	eng := sim.NewEngine()
	rng := sim.NewRand(c.Seed)
	nCores := c.NumCores()
	policy, err := cpu.ParsePolicy(c.Policy)
	if err != nil {
		return nil, fmt.Errorf("simconfig: %w", err)
	}
	// One structure per core under partitioned/steal, one shared structure
	// under global or on a uniprocessor. Structures are built in core
	// order, nodes in config order, so every leaf RNG fork is drawn in a
	// deterministic sequence — and a single-core build draws exactly the
	// pre-SMP sequence.
	nStructs := nCores
	if policy == cpu.PolicyGlobal || nCores == 1 {
		nStructs = 1
	}
	structures := make([]*core.Structure, nStructs)
	leaves := make([]map[string]core.NodeID, nStructs)
	svr4s := make([]map[string]*sched.SVR4, nStructs)
	reserves := make([]map[string]*sched.Reserves, nStructs)
	for k := 0; k < nStructs; k++ {
		s := core.NewStructure()
		structures[k] = s
		leaves[k] = map[string]core.NodeID{}
		svr4s[k] = map[string]*sched.SVR4{}
		reserves[k] = map[string]*sched.Reserves{}
		for _, nc := range c.Nodes {
			w := nc.Weight
			if w == 0 {
				w = 1
			}
			var leaf sched.Scheduler
			if nc.Leaf != "" {
				var err error
				leaf, err = sched.New(nc.Leaf, sched.LeafConfig{
					Quantum: nc.Quantum.Time(),
					IPS:     int64(rate),
					RNG:     rng,
					Levels:  nc.Levels,
					Aging:   nc.Aging.Time(),
				})
				if err != nil {
					return nil, fmt.Errorf("simconfig: node %q: %w", nc.Path, err)
				}
			}
			id, err := s.MknodPath(nc.Path, w, leaf)
			if err != nil {
				return nil, fmt.Errorf("simconfig: node %q: %w", nc.Path, err)
			}
			if leaf != nil {
				leaves[k][nc.Path] = id
				if v, ok := leaf.(*sched.SVR4); ok {
					svr4s[k][nc.Path] = v
				}
				if v, ok := leaf.(*sched.Reserves); ok {
					reserves[k][nc.Path] = v
				}
			}
		}
	}

	scheds := make([]sched.Scheduler, nStructs)
	for k, s := range structures {
		scheds[k] = s
	}
	m := cpu.NewSMP(eng, rate, cpu.SMPConfig{
		Cores:         nCores,
		Policy:        policy,
		Schedulers:    scheds,
		SwitchCost:    c.SwitchCost.Time(),
		MigrationCost: c.MigrationCost.Time(),
	})
	simn := &Simulation{
		Config:     c,
		Engine:     eng,
		Machine:    m,
		Structure:  structures[0],
		Structures: structures,
		Periodics:  map[string]*workload.Periodic{},
		Decoders:   map[string]*workload.Decoder{},
	}

	for i, tc := range c.Threads {
		home := i % nCores
		if tc.Affinity != nil {
			home = *tc.Affinity
		}
		sidx := home
		if nStructs == 1 {
			sidx = 0
		}
		id, ok := leaves[sidx][tc.Leaf]
		if !ok {
			return nil, fmt.Errorf("simconfig: thread %q: no leaf %q", tc.Name, tc.Leaf)
		}
		w := tc.Weight
		if w == 0 {
			w = 1
		}
		th := sched.NewThread(i+1, tc.Name, w)
		th.Period = tc.Period.Time()
		prog, err := buildProgram(simn, tc, rate, rng)
		if err != nil {
			return nil, err
		}
		if tc.RTPriority != nil {
			v, ok := svr4s[sidx][tc.Leaf]
			if !ok {
				return nil, fmt.Errorf("simconfig: thread %q: rt_priority needs an svr4 leaf", tc.Name)
			}
			v.SetRealTime(th, *tc.RTPriority)
		}
		if tc.ReserveCost > 0 || tc.ReservePeriod > 0 {
			v, ok := reserves[sidx][tc.Leaf]
			if !ok {
				return nil, fmt.Errorf("simconfig: thread %q: reserve needs a reserves leaf", tc.Name)
			}
			if tc.ReserveCost <= 0 || tc.ReservePeriod <= 0 {
				return nil, fmt.Errorf("simconfig: thread %q: reserve needs both cost and period", tc.Name)
			}
			v.SetReserve(th, rate.WorkFor(tc.ReserveCost.Time()), tc.ReservePeriod.Time())
		}
		if err := structures[sidx].Attach(th, id); err != nil {
			return nil, fmt.Errorf("simconfig: thread %q: %w", tc.Name, err)
		}
		m.AddOn(th, prog, tc.Start.Time(), home)
		simn.Threads = append(simn.Threads, th)
	}

	for _, ic := range c.Interrupts {
		src, err := buildInterrupt(ic, rng)
		if err != nil {
			return nil, err
		}
		m.AddInterrupts(src)
	}
	return simn, nil
}

// Run executes the simulation to its horizon and settles accounting.
func (s *Simulation) Run() {
	s.Machine.Run(s.Config.Horizon.Time())
	s.Machine.Flush()
}

// ThreadMetas returns each thread's position in the scheduling tree —
// the sideband trace streams and hierarchy-aware renderers need to lay
// events out by depth. Order matches s.Threads (and thus config order).
func (s *Simulation) ThreadMetas() []trace.ThreadMeta {
	out := make([]trace.ThreadMeta, 0, len(s.Threads))
	for _, th := range s.Threads {
		m := trace.ThreadMeta{TID: th.ID, Name: th.Name}
		if st := s.StructureOf(th); st != nil {
			m.Path = st.PathOf(st.LeafOf(th).ID())
			m.Depth = trace.DepthFromPath(m.Path)
		}
		out = append(out, m)
	}
	return out
}

func buildProgram(s *Simulation, tc ThreadConfig, rate cpu.Rate, rng *sim.Rand) (cpu.Program, error) {
	pc := tc.Program
	burst := sched.Work(pc.Burst)
	if burst == 0 {
		burst = rate.WorkFor(10 * sim.Millisecond)
	}
	switch pc.Kind {
	case "", "loop":
		return workload.CPUBound(burst), nil
	case "dhrystone":
		d := workload.Dhrystone{
			LoopWork:   rate.WorkFor(100 * sim.Microsecond),
			FaultEvery: pc.FaultEvery,
			FaultSleep: pc.FaultSleep.Time(),
		}
		return d.Program(), nil
	case "mpeg":
		frames := pc.Frames
		if frames == 0 {
			frames = 100000
		}
		gen := workload.DefaultMPEG(int64(rate), rng.Fork())
		dec := workload.NewDecoder(gen.Trace(frames), pc.Loop)
		s.Decoders[tc.Name] = dec
		return dec, nil
	case "trace":
		if pc.File == "" {
			return nil, fmt.Errorf("simconfig: thread %q: trace needs a file", tc.Name)
		}
		f, err := os.Open(pc.File)
		if err != nil {
			return nil, fmt.Errorf("simconfig: thread %q: %w", tc.Name, err)
		}
		costs, err := workload.ReadCosts(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("simconfig: thread %q: %w", tc.Name, err)
		}
		dec := workload.NewDecoder(costs, pc.Loop)
		s.Decoders[tc.Name] = dec
		return dec, nil
	case "periodic":
		if pc.Period == 0 || pc.Cost == 0 {
			return nil, fmt.Errorf("simconfig: thread %q: periodic needs period and cost", tc.Name)
		}
		p := &workload.Periodic{
			Period: pc.Period.Time(),
			Cost:   rate.WorkFor(pc.Cost.Time()),
		}
		s.Periodics[tc.Name] = p
		return p, nil
	case "interactive":
		think := pc.ThinkMean.Time()
		if think == 0 {
			think = 150 * sim.Millisecond
		}
		iv := workload.Interactive{ThinkMean: think, BurstMean: burst, Rand: rng.Fork()}
		return iv.Program(), nil
	case "onoff":
		bursts := pc.Bursts
		if bursts == 0 {
			bursts = 10
		}
		off := pc.Off.Time()
		if off == 0 {
			off = sim.Second
		}
		return workload.OnOff(burst, bursts, off), nil
	default:
		return nil, fmt.Errorf("simconfig: thread %q: unknown program %q", tc.Name, pc.Kind)
	}
}

func buildInterrupt(ic InterruptConfig, rng *sim.Rand) (cpu.InterruptSource, error) {
	switch ic.Kind {
	case "periodic":
		return &cpu.PeriodicInterrupts{Period: ic.Period.Time(), Service: ic.Service.Time()}, nil
	case "poisson":
		return &cpu.PoissonInterrupts{RatePerSec: ic.RatePerSec, ServiceMean: ic.Service.Time(), Rand: rng.Fork()}, nil
	case "burst":
		return &cpu.BurstInterrupts{Period: ic.Period.Time(), Count: ic.Count, Service: ic.Service.Time()}, nil
	default:
		return nil, fmt.Errorf("simconfig: unknown interrupt kind %q", ic.Kind)
	}
}
