package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with stdout redirected into a string. The pipe is
// drained concurrently so large outputs cannot deadlock the writer.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- string(b)
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-outCh
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

func TestRunDemoConfig(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "events.csv")
	dotPath := filepath.Join(dir, "structure.dot")
	out := capture(t, func() error {
		return run(runOptions{tracePath: tracePath, dotPath: dotPath})
	})

	for _, want := range []string{
		"scheduling structure:",
		"best-effort",
		"sensor",
		"missed deadlines",
		"frames decoded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if b, err := os.ReadFile(tracePath); err != nil || !strings.Contains(string(b), "dispatch") {
		t.Errorf("trace file: %v", err)
	}
	if b, err := os.ReadFile(dotPath); err != nil || !strings.Contains(string(b), "digraph") {
		t.Errorf("dot file: %v", err)
	}
}

func TestRunWithConfigFileAndGantt(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfg, []byte(`{
	  "horizon": "1s",
	  "nodes": [{"path": "/a", "leaf": "sfq"}],
	  "threads": [{"name": "x", "leaf": "/a", "program": {"kind": "loop"}}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error {
		return run(runOptions{configPath: cfg, seed: 7, gantt: true})
	})
	if !strings.Contains(out, "first second of the schedule:") {
		t.Error("gantt section missing")
	}
	if !strings.Contains(out, "x") {
		t.Error("thread row missing")
	}
}

func TestRunMissingConfig(t *testing.T) {
	if err := run(runOptions{configPath: "/no/such/config.json"}); err == nil {
		t.Error("missing config accepted")
	}
}

const ckptTestConfig = `{
  "horizon": "1s",
  "seed": 11,
  "nodes": [
    {"path": "/rt", "weight": 2, "leaf": "edf", "quantum": "5ms"},
    {"path": "/be", "weight": 1, "leaf": "sfq", "quantum": "10ms"}
  ],
  "threads": [
    {"name": "cam", "leaf": "/rt", "program": {"kind": "periodic", "period": "40ms", "cost": "6ms"}},
    {"name": "job", "leaf": "/be", "program": {"kind": "loop"}}
  ],
  "interrupts": [{"kind": "poisson", "rate_per_sec": 80, "service": "120us"}]
}`

// TestRunCheckpointResume drives the full CLI round trip: a checkpointing
// run leaves a snapshot behind, a -resume run finishes from it, and the
// resumed run's trace CSV is byte-identical to the uninterrupted one.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfg, []byte(ckptTestConfig), 0o644); err != nil {
		t.Fatal(err)
	}

	pristine := filepath.Join(dir, "pristine.csv")
	capture(t, func() error { return run(runOptions{configPath: cfg, tracePath: pristine}) })

	ckpt := filepath.Join(dir, "run.ckpt")
	capture(t, func() error {
		return run(runOptions{
			configPath: cfg,
			tracePath:  filepath.Join(dir, "ignored.csv"),
			ckptEvery:  300 * 1e6, // 300ms simulated
			ckptOut:    ckpt,
		})
	})
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	resumed := filepath.Join(dir, "resumed.csv")
	out := capture(t, func() error {
		return run(runOptions{resumePath: ckpt, tracePath: resumed})
	})
	if !strings.Contains(out, "scheduling structure:") {
		t.Error("resumed run printed no report")
	}

	want, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed trace differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

func TestRunFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfg, []byte(ckptTestConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  runOptions
	}{
		{"resume+config", runOptions{resumePath: "x.ckpt", configPath: cfg}},
		{"resume+seed", runOptions{resumePath: "x.ckpt", seed: 3}},
		{"every without out", runOptions{configPath: cfg, ckptEvery: 1e6}},
		{"out without every", runOptions{configPath: cfg, ckptOut: filepath.Join(dir, "a.ckpt")}},
		{"resume missing file", runOptions{resumePath: filepath.Join(dir, "nope.ckpt")}},
	}
	for _, tc := range cases {
		if err := run(tc.opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunResumeWithoutTraceSection checks the error when a traceless
// checkpoint is resumed with -trace: the past events cannot be recreated.
func TestRunResumeWithoutTraceSection(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(cfg, []byte(ckptTestConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "run.ckpt")
	capture(t, func() error {
		return run(runOptions{configPath: cfg, ckptEvery: 400 * 1e6, ckptOut: ckpt})
	})
	err := run(runOptions{resumePath: ckpt, tracePath: filepath.Join(dir, "t.csv")})
	if err == nil || !strings.Contains(err.Error(), "no trace section") {
		t.Errorf("want trace-section error, got %v", err)
	}
	// Without -trace the same checkpoint resumes fine.
	capture(t, func() error { return run(runOptions{resumePath: ckpt}) })
}

// TestRunSummaryDeterministic runs a shipped config with several
// decoders repeatedly and requires byte-identical stdout: the
// per-program summary lines must not follow map iteration order, which
// a handful of repeats exposes with high probability.
func TestRunSummaryDeterministic(t *testing.T) {
	cfg := filepath.Join("..", "..", "examples", "configs", "video-server.json")
	first := capture(t, func() error { return run(runOptions{configPath: cfg}) })
	if !strings.Contains(first, `decoder "stream-hd"`) {
		t.Fatalf("summary missing decoder lines:\n%s", first)
	}
	for i := 0; i < 9; i++ {
		if again := capture(t, func() error { return run(runOptions{configPath: cfg}) }); again != first {
			t.Fatalf("run %d stdout differs from the first:\n%s\nvs\n%s", i+2, again, first)
		}
	}
}
