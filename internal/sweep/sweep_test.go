package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hsfq/internal/simconfig"
)

// testSpec is a small but non-trivial scenario: a proportional-share leaf
// and an SVR4 leaf, an MPEG decoder (seed-sensitive costs), a loop hog,
// and Poisson interrupts (seed-sensitive arrivals), at a short horizon.
const testSpec = `{
  "name": "test",
  "seeds": 2,
  "base": {
    "rate_mips": 100,
    "horizon": "300ms",
    "seed": 42,
    "nodes": [
      {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "10ms"},
      {"path": "/be", "weight": 1, "leaf": "svr4"}
    ],
    "threads": [
      {"name": "dec", "leaf": "/soft", "weight": 2,
       "program": {"kind": "mpeg", "loop": true}},
      {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}}
    ],
    "interrupts": [
      {"kind": "poisson", "rate_per_sec": 100, "service": "200us"}
    ]
  },
  "axes": [
    {"param": "quantum", "target": "/soft", "values": ["5ms", "20ms"]},
    {"param": "leaf", "target": "/soft", "values": ["sfq", "stride"]}
  ]
}`

func parseTestSpec(t *testing.T, js string) Spec {
	t.Helper()
	spec, err := ParseSpec(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestExpandGrid(t *testing.T) {
	spec := parseTestSpec(t, testSpec)
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 { // 2 quanta x 2 leaves x 2 seeds
		t.Fatalf("expanded %d jobs, want 8", len(jobs))
	}
	seenPoints := map[string]bool{}
	for i, job := range jobs {
		if job.ID != i {
			t.Errorf("job %d has ID %d", i, job.ID)
		}
		if job.Seed != 42+uint64(job.Rep) {
			t.Errorf("job %d: seed %d for rep %d", i, job.Seed, job.Rep)
		}
		seenPoints[pointKey(job.Point)] = true
	}
	if len(seenPoints) != 4 {
		t.Errorf("saw %d distinct points, want 4", len(seenPoints))
	}
	// The axis values landed in the cloned configs, not the base.
	if got := jobs[0].Config.Nodes[0].Quantum.Time(); got != 5_000_000 {
		t.Errorf("job 0 quantum = %d", got)
	}
	if got := spec.Base.Nodes[0].Quantum.Time(); got != 10_000_000 {
		t.Errorf("base quantum mutated to %d", got)
	}
	last := jobs[len(jobs)-1]
	if last.Config.Nodes[0].Leaf != "stride" || last.Config.Nodes[0].Quantum.Time() != 20_000_000 {
		t.Errorf("last job config: leaf=%q quantum=%d", last.Config.Nodes[0].Leaf, last.Config.Nodes[0].Quantum.Time())
	}
}

// TestExpandFeedbackAxes sweeps the adaptive-leaf geometry: level count
// and aging bound on an mlfq node. Each expanded config must carry the
// axis values, validate, and actually run.
func TestExpandFeedbackAxes(t *testing.T) {
	spec := parseTestSpec(t, `{
	  "name": "feedback",
	  "seeds": 1,
	  "base": {
	    "rate_mips": 100,
	    "horizon": "100ms",
	    "seed": 42,
	    "nodes": [{"path": "/fb", "weight": 1, "leaf": "mlfq", "quantum": "2ms"}],
	    "threads": [
	      {"name": "hog", "leaf": "/fb", "program": {"kind": "loop"}},
	      {"name": "chatty", "leaf": "/fb", "program": {"kind": "interactive", "think_mean": "10ms"}}
	    ]
	  },
	  "axes": [
	    {"param": "levels", "target": "/fb", "values": [2, 5]},
	    {"param": "aging", "target": "/fb", "values": ["50ms", "400ms"]},
	    {"param": "leaf", "target": "/fb", "values": ["mlfq", "drr"]}
	  ]
	}`)
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 { // 2 levels x 2 agings x 2 leaves
		t.Fatalf("expanded %d jobs, want 8", len(jobs))
	}
	for _, job := range jobs {
		nc := job.Config.Nodes[0]
		if nc.Levels != 2 && nc.Levels != 5 {
			t.Errorf("job %d: levels = %d", job.ID, nc.Levels)
		}
		if a := nc.Aging.Time(); a != 50_000_000 && a != 400_000_000 {
			t.Errorf("job %d: aging = %d", job.ID, a)
		}
		if err := job.Config.Validate(); err != nil {
			t.Errorf("job %d: %v", job.ID, err)
		}
	}
	// The drr end of the leaf axis must execute too (levels/aging are
	// inert there but still validate).
	last := jobs[len(jobs)-1]
	if last.Config.Nodes[0].Leaf != "drr" {
		t.Fatalf("last job leaf = %q, want drr", last.Config.Nodes[0].Leaf)
	}
	for _, job := range []Job{jobs[0], last} {
		if r := RunJob(job, true); r.Error != "" || r.Mismatch {
			t.Errorf("job %d failed: err=%q mismatch=%v", job.ID, r.Error, r.Mismatch)
		}
	}
}

func TestExpandErrors(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"no base":       func(s *Spec) { s.Base.Nodes = nil },
		"unknown param": func(s *Spec) { s.Axes[0].Param = "bogus" },
		"no values":     func(s *Spec) { s.Axes[0].Values = nil },
		"bad target":    func(s *Spec) { s.Axes[0].Target = "/nope" },
		"dup axis":      func(s *Spec) { s.Axes[1] = s.Axes[0] },
	} {
		spec := parseTestSpec(t, testSpec)
		mutate(&spec)
		if _, err := Expand(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Unknown leaf kinds are rejected at expansion, with the registry list.
	spec := parseTestSpec(t, strings.Replace(testSpec, `"stride"`, `"bogus"`, 1))
	if _, err := Expand(spec); err == nil || !strings.Contains(err.Error(), "unknown leaf scheduler") {
		t.Errorf("bad leaf kind: %v", err)
	}
}

// TestRemovedQueueAxisRejected pins the fate of sweep specs written when
// the event queue was a sweepable knob: an event_queue axis is an
// unknown param, and an event_queue key in the base config is an unknown
// field. Both errors name it.
func TestRemovedQueueAxisRejected(t *testing.T) {
	axis := strings.Replace(testSpec, `"param": "quantum", "target": "/soft", "values": ["5ms", "20ms"]`,
		`"param": "event_queue", "values": ["heap", "wheel"]`, 1)
	if _, err := Expand(parseTestSpec(t, axis)); err == nil || !strings.Contains(err.Error(), `"event_queue"`) {
		t.Errorf("event_queue axis: got %v, want an error naming the param", err)
	}
	base := strings.Replace(testSpec, `"horizon": "300ms",`, `"horizon": "300ms", "event_queue": "heap",`, 1)
	if _, err := ParseSpec(strings.NewReader(base)); err == nil || !strings.Contains(err.Error(), `"event_queue"`) {
		t.Errorf("event_queue in base: got %v, want an error naming the field", err)
	}
}

// TestDeterminismUnderConcurrency runs the same job on N goroutines
// simultaneously and requires byte-identical canonical outcomes: nothing
// in the build or run path may share state across simulations.
func TestDeterminismUnderConcurrency(t *testing.T) {
	spec := parseTestSpec(t, testSpec)
	jobs, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	const n = 8
	outs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := simconfig.Build(job.Config, simconfig.BuildOptions{Seed: job.Seed})
			if err != nil {
				t.Error(err)
				return
			}
			s.Run()
			outs[i] = Canonical(s)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("goroutine %d diverged:\n%s\nvs\n%s", i, outs[i], outs[0])
		}
	}
	if outs[0] == "" {
		t.Fatal("empty canonical output")
	}
}

// TestRunWorkerCountInvariance checks the engine's core guarantee: the
// full report — digests, metrics, aggregates, and the streamed JSONL
// bytes — is identical at any worker count.
func TestRunWorkerCountInvariance(t *testing.T) {
	spec := parseTestSpec(t, testSpec)
	var serial, parallel bytes.Buffer
	rep1, err := Run(spec, Options{Workers: 1, Stream: &serial})
	if err != nil {
		t.Fatal(err)
	}
	rep8, err := Run(spec, Options{Workers: 8, Stream: &parallel})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("JSONL streams differ:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
	for i := range rep1.Results {
		if rep1.Results[i].Digest != rep8.Results[i].Digest {
			t.Errorf("job %d digest differs across worker counts", i)
		}
	}
	if len(rep1.Aggregates) != 4 {
		t.Fatalf("got %d aggregates, want 4", len(rep1.Aggregates))
	}
	for _, agg := range rep1.Aggregates {
		if agg.Seeds != 2 {
			t.Errorf("point %v aggregated %d seeds", agg.Point, agg.Seeds)
		}
		if agg.Metrics["work_total"].N != 2 {
			t.Errorf("point %v work_total over %d values", agg.Point, agg.Metrics["work_total"].N)
		}
	}
}

// TestSeedReplicationsDiffer: the scenario has seed-sensitive randomness
// (MPEG costs, Poisson interrupts), so different replications of a point
// must not produce the same digest — if they did, the seed would not be
// reaching the simulation.
func TestSeedReplicationsDiffer(t *testing.T) {
	spec := parseTestSpec(t, testSpec)
	rep, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Digest == rep.Results[1].Digest {
		t.Error("rep 0 and rep 1 of the same point have identical digests")
	}
}

func TestRunVerify(t *testing.T) {
	spec := parseTestSpec(t, testSpec)
	spec.Seeds = 1
	rep, err := Run(spec, Options{Workers: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d job(s) failed verify", rep.Failed)
	}
}

// TestRunVerifyMismatch injects a flaky execution through the executeJob
// seam and checks a digest change between the two Verify runs surfaces as
// a Mismatch-flagged result and a Report.Mismatched count — the signal
// hsfqsweep turns into its distinct exit code.
func TestRunVerifyMismatch(t *testing.T) {
	orig := executeJob
	defer func() { executeJob = orig }()
	var mu sync.Mutex
	calls := map[int]int{}
	executeJob = func(job Job) (string, map[string]float64, error) {
		mu.Lock()
		calls[job.ID]++
		n := calls[job.ID]
		mu.Unlock()
		if job.ID == 0 {
			return fmt.Sprintf("digest-%d", n), map[string]float64{"x": 1}, nil
		}
		return "stable", map[string]float64{"x": 1}, nil
	}

	spec := parseTestSpec(t, testSpec)
	spec.Seeds = 1
	rep, err := Run(spec, Options{Workers: 2, Verify: true})
	if err == nil {
		t.Fatal("mismatch did not fail the run")
	}
	if rep.Mismatched != 1 || rep.Failed != 1 {
		t.Fatalf("mismatched=%d failed=%d, want 1/1", rep.Mismatched, rep.Failed)
	}
	r := rep.Results[0]
	if !r.Mismatch || !strings.Contains(r.Error, "nondeterministic") {
		t.Errorf("result 0: %+v", r)
	}
	for _, r := range rep.Results[1:] {
		if r.Mismatch || r.Error != "" {
			t.Errorf("stable job flagged: %+v", r)
		}
	}
}

// TestJobKey checks the request content address: stable across calls,
// sensitive to both config and seed, and distinct from sweep keys.
func TestJobKey(t *testing.T) {
	spec := parseTestSpec(t, testSpec)
	k1 := JobKey(spec.Base, 1)
	if k1 != JobKey(spec.Base, 1) {
		t.Error("JobKey not stable")
	}
	if len(k1) != 64 {
		t.Errorf("JobKey %q is not hex SHA-256", k1)
	}
	if JobKey(spec.Base, 2) == k1 {
		t.Error("seed does not reach the key")
	}
	changed := spec.Base
	changed.RateMIPS = 999
	if JobKey(changed, 1) == k1 {
		t.Error("config change does not reach the key")
	}
	if SweepKey(spec) == SweepKey(Spec{Name: "other", Base: spec.Base}) {
		t.Error("SweepKey insensitive to the spec")
	}
}

func TestRunJobError(t *testing.T) {
	spec := parseTestSpec(t, testSpec)
	// A trace program with a missing file parses and validates, but fails
	// at build time — the failure must surface as a job error.
	spec.Base.Threads[1].Program = simconfig.ProgramConfig{Kind: "trace", File: "/nonexistent"}
	rep, err := Run(spec, Options{Workers: 2})
	if err == nil {
		t.Fatal("missing-file build error not reported")
	}
	if rep == nil || rep.Failed != rep.Jobs {
		t.Fatalf("report: %+v", rep)
	}
}
