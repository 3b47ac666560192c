// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed wall-clock window, checks every output, and prints one JSON
// result line with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run):
//
//	perfbench --workload sim-configs --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - sim-configs: closed loop, one client. An op parses, builds, runs,
//     digests and summarizes every shipped scenario plus the SMP sweep
//     base at four cores under each placement policy, horizons stretched
//     so the event engine dominates.
//   - figures: closed loop, one client. An op is one pass of the figure
//     suite, checked against its pinned goldens.
//   - serve-open: open loop. Poisson arrivals at a fixed rate drive an
//     in-process hsfqd server with cache hits, fresh runs and horizon
//     extensions; latency counts from each request's intended send time.
//
// Run it from the repository root (it reads examples/ and the figure
// goldens); perfbench/run.py builds and runs it there. BENCHMARK.json at
// the root lists the workloads, why each exists, and the metrics with
// their regression bounds; perLayer below records which end-to-end metric
// each layer metric should move, and on which workload. A traced run
// also writes its spans to .bench_build/spans/. Exit status: 0 when every
// check passed, 1 when a check failed or the run was invalid (the result
// line is still printed), 2 when the run could not start.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hsfq/internal/experiments"
)

// endToEnd are the metrics an untraced run prints, in BENCHMARK.json's
// order; TestBenchmarkJSON keeps the two lists in step.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "latency_ms_p90", Unit: "ms", Better: "lower"},
}

// Workload groups for perLayer's On column.
const (
	onSim    = "sim-configs; serve-open (replayed misses)"
	onServe  = "serve-open"
	onFigs   = "figures"
	onTraced = "every workload"
)

// perLayer are the metrics a traced run prints. Moves names the
// end-to-end metric a change to the layer should move, On the workloads
// that measure it; elsewhere the metric reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim_ns_per_wall_ns", "ratio", "higher", "ops_per_s, latency_ms_p50", onSim},
		{"sim.run_ms", "ms", "lower", "latency_ms_p50", onSim},
		{"sim.host_ns_per_event", "ns", "lower", "latency_ms_p50", onSim},
		{"sim.events_fired", "count", "lower", "latency_ms_p50", onSim},
		{"sim.events_scheduled", "count", "lower", "latency_ms_p50", onSim},
		{"sim.events_cancelled", "count", "lower", "latency_ms_p50", onSim},
		{"sim.events_per_dispatch", "ratio", "lower", "latency_ms_p50", onSim},
		{"cpu.dispatches", "count", "lower", "latency_ms_p50", onSim},
		{"cpu.preemptions", "count", "lower", "latency_ms_p50", onSim},
		{"cpu.interrupts", "count", "lower", "latency_ms_p50", onSim},
		{"cpu.migrations", "count", "lower", "latency_ms_p50", onSim},
		{"cpu.charge_to_dispatch_ns_p50", "ns", "lower", "latency_ms_p50", "sim-configs"},
		{"simconfig.parse_ms", "ms", "lower", "latency_ms_p50", onSim},
		{"simconfig.build_ms", "ms", "lower", "latency_ms_p50", onSim},
		{"sweep.digest_ms", "ms", "lower", "latency_ms_p50", onSim},
		{"sweep.metrics_ms", "ms", "lower", "latency_ms_p50", onSim},
		{"checkpoint.save_ms", "ms", "lower", "latency_ms_p90", "sim-configs; serve-open"},
		{"checkpoint.restore_ms", "ms", "lower", "latency_ms_p90", "sim-configs; serve-open"},
		{"checkpoint.bytes", "bytes", "lower", "latency_ms_p90", "sim-configs; serve-open"},
		{"checkpoint.resume_hit_ratio", "ratio", "higher", "latency_ms_p90", onServe},
	}
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{"experiments." + id + "_ms", "ms", "lower", "latency_ms_p50", onFigs})
	}
	return append(defs,
		metricDef{"experiments.fairqueue_ms", "ms", "lower", "latency_ms_p50", onFigs},
		metricDef{"experiments.machine_ms", "ms", "lower", "latency_ms_p50", onFigs},
		metricDef{"server.hit_ms_p50", "ms", "lower", "latency_ms_p50, latency_ms_p90", onServe},
		metricDef{"server.miss_ms_p50", "ms", "lower", "latency_ms_p50, latency_ms_p90", onServe},
		metricDef{"server.resume_ms_p50", "ms", "lower", "latency_ms_p90", onServe},
		metricDef{"server.handler_ms_p50", "ms", "lower", "latency_ms_p50, latency_ms_p90", onServe},
		metricDef{"server.cache_hit_ratio", "ratio", "higher", "latency_ms_p50, latency_ms_p90", onServe},
		metricDef{"server.coalesced", "count", "higher", "latency_ms_p90", onServe},
		metricDef{"server.shed", "count", "lower", "latency_ms_p90", onServe},
		metricDef{"server.worker_utilization", "ratio", "lower", "latency_ms_p90", onServe},
		metricDef{"tenantsched.queue_depth_max", "count", "lower", "latency_ms_p90", onServe},
		metricDef{"tracestream.recorded_bytes", "bytes", "lower", "latency_ms_p90", onServe},
		metricDef{"tracestream.overhead_ms", "ms", "lower", "latency_ms_p90", onServe},
		metricDef{"loadgen.late_ms_p99", "ms", "lower", "latency_ms_p90", onServe},
		metricDef{"trace.overhead_ms", "ms", "lower", "none: traced minus untraced median op", onTraced},
		metricDef{"trace.residual_ms", "ms", "lower", "none: op time outside the layer spans", onTraced},
	)
}()

type metricDef struct{ Name, Unit, Better, Moves, On string }

// options are the command-line inputs of one run.
type options struct {
	Workload string
	Seed     uint64
	Window   time.Duration
	Trace    bool
	// OutDir receives run scratch such as checkpoint stores; it is removed
	// when the run ends.
	OutDir string
	// SpanDir receives a traced run's span file.
	SpanDir string
}

// report is what a workload hands back: the checks it made and every
// metric it measured, by name.
type report struct {
	Attempted int
	Failed    int
	// Invalid, when non-empty, says why the run's figures cannot be
	// trusted even though every output checked out.
	Invalid string
	Metrics map[string]float64
}

var workloads = map[string]func(options) (report, error){
	"sim-configs": runSimConfigs,
	"figures":     runFigures,
	"serve-open":  runServeOpen,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-configs, figures or serve-open")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the measured window in seconds")
		traced  = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 the end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	opt := options{
		Workload: *name,
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Trace:    *traced == 1,
		OutDir:   filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *name, os.Getpid())),
		SpanDir:  filepath.Join(".bench_build", "spans"),
	}
	rep, err := run(opt)
	os.RemoveAll(opt.OutDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(2)
	}
	os.Exit(emit(opt, rep))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the result line and returns the exit status.
func emit(opt options, rep report) int {
	defs := endToEnd
	if opt.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   rep.Attempted > 0 && rep.Failed == 0 && rep.Invalid == "",
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A window too short to hold a sample leaves a ratio undefined.
			v, ok = 0, false
		}
		if !ok && !opt.Trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", opt.Workload, d.Name)
			out.Correct = false
		}
		out.Metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(os.Stderr, "%-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if rep.Invalid != "" {
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: %s\n", rep.Invalid)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// closedLoop runs a one-client closed loop: op(i) back to back until the
// window has elapsed, the next op starting when the previous one
// returns, so each latency is the op's own service time.
type closedLoop struct {
	latencies []float64   // ms, one per op
	modes     [][]float64 // latencies split by mode
	cpu       time.Duration
	wall      time.Duration
	failed    int
}

// runClosedLoop calls op(i, mode) with mode cycling through nModes, so a
// traced run interleaves untraced ops (mode 0) with traced ones.
func runClosedLoop(window time.Duration, nModes int, op func(i, mode int) error) closedLoop {
	l := closedLoop{modes: make([][]float64, nModes)}
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		mode := i % nModes
		t0 := time.Now()
		err := op(i, mode)
		d := ms(time.Since(t0))
		if err != nil {
			l.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			continue
		}
		l.latencies = append(l.latencies, d)
		l.modes[mode] = append(l.modes[mode], d)
	}
	l.wall = time.Since(start)
	l.cpu = cpuTime() - cpu0
	return l
}

func (l closedLoop) attempted() int { return len(l.latencies) + l.failed }

// endToEnd fills the end-to-end metrics a closed loop measures.
func (l closedLoop) endToEnd(m map[string]float64, setups []float64) {
	n := float64(l.attempted())
	m["setup_s"] = median(setups)
	m["ops_per_s"] = float64(len(l.latencies)) / l.wall.Seconds()
	m["cpu_ms_per_op"] = ms(l.cpu) / n
	m["latency_ms_p50"] = median(l.latencies)
	m["latency_ms_p90"] = quantile(l.latencies, 0.9)
	m["peak_rss_mb"] = peakRSSMB()
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 3

// repeatSetup calls setup setupRepeats times, closing all but the last
// instance, and returns it with every set-up duration in seconds.
func repeatSetup[T any](setup func() (T, error), closeFn func(T)) (T, []float64, error) {
	var (
		inst   T
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if k > 0 && closeFn != nil {
			closeFn(inst)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return inst, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = v
	}
	return inst, setups, nil
}

// writeSpans stores a traced run's spans and says where.
func writeSpans(opt options, tr *tracer) {
	path, err := tr.write(opt.SpanDir, fmt.Sprintf("%s-seed%d.jsonl", opt.Workload, opt.Seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans in %s\n", len(tr.spans), path)
}
