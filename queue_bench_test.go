package hsfq_test

import (
	"strings"
	"testing"
	"time"

	"hsfq/internal/sim"
	"hsfq/internal/simconfig"
)

// BenchmarkEventStorm is the engine's pure event-loop hot path under
// timer pressure: 4096 outstanding timers, each firing re-arms itself at
// a mostly-near-future horizon (with occasional far-future jumps). ns/op
// is the cost of one pop+push cycle at that population.
func BenchmarkEventStorm(b *testing.B) {
	eng := sim.NewEngine()
	rng := sim.NewRand(7)
	var arm func()
	arm = func() {
		delta := sim.Time(1_000 + rng.Int63n(1_000_000))
		if rng.Int63n(64) == 0 {
			delta = sim.Time(rng.Int63n(int64(10 * sim.Second)))
		}
		eng.After(delta, arm)
	}
	const outstanding = 4096
	for i := 0; i < outstanding; i++ {
		arm()
	}
	// Warm through one full population so the event pool reaches steady
	// state before the timer starts.
	for i := 0; i < outstanding; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// stormConfig is the whole-run throughput scenario: a hierarchy with
// periodic hard-real-time load, an MPEG decoder, interactive and batch
// threads, and two interrupt sources — the event-densest single-core
// shape the paper's evaluation uses.
const stormConfig = `{
  "rate_mips": 100,
  "horizon": "2s",
  "seed": 42,
  "nodes": [
    {"path": "/rt", "weight": 3},
    {"path": "/rt/hard", "weight": 2, "leaf": "edf"},
    {"path": "/rt/soft", "weight": 1, "leaf": "sfq", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "svr4"}
  ],
  "threads": [
    {"name": "sensor", "leaf": "/rt/hard",
     "program": {"kind": "periodic", "period": "10ms", "cost": "1ms"}},
    {"name": "dec", "leaf": "/rt/soft", "weight": 3,
     "program": {"kind": "mpeg", "frames": 90, "loop": true}},
    {"name": "editor", "leaf": "/rt/soft",
     "program": {"kind": "interactive", "think_mean": "40ms"}},
    {"name": "make", "leaf": "/be",
     "program": {"kind": "dhrystone", "fault_every": 50, "fault_sleep": "2ms"}}
  ],
  "interrupts": [
    {"kind": "periodic", "period": "5ms", "service": "100us"},
    {"kind": "poisson", "rate_per_sec": 200, "service": "200us"}
  ]
}`

// BenchmarkSimThroughput measures whole-run speed as simulated
// nanoseconds per wall nanosecond (reported via the sim_ns/wall_ns
// metric; benchjson's throughput section aggregates it). One iteration
// builds and runs the storm scenario to its 2 s horizon.
func BenchmarkSimThroughput(b *testing.B) {
	cfg, err := simconfig.Parse(strings.NewReader(stormConfig))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var simulated sim.Time
	for i := 0; i < b.N; i++ {
		s, err := simconfig.Build(cfg, simconfig.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
		simulated += s.Engine.Now()
	}
	wall := time.Since(start)
	if wall > 0 {
		b.ReportMetric(float64(simulated)/float64(wall.Nanoseconds()), "sim_ns/wall_ns")
	}
}
