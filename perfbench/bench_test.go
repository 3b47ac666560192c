package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain runs the tests from the repository root, where the benchmark
// finds examples/ and the figure goldens.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// countMetrics are the sim-configs per-layer metrics that count work
// rather than time it; they must repeat exactly at a fixed seed.
var countMetrics = []string{
	"sim.events_fired", "sim.events_scheduled", "sim.events_cancelled", "sim.events_per_dispatch",
	"cpu.dispatches", "cpu.preemptions", "cpu.interrupts", "cpu.migrations",
	"checkpoint.bytes",
}

// TestSimConfigsCountsExact runs the traced sim-configs workload twice at
// one seed: every count must be identical and every check must pass, so
// a change to events per decision can be claimed as a count.
func TestSimConfigsCountsExact(t *testing.T) {
	opt := options{Workload: "sim-configs", Seed: 7, Window: 500 * time.Millisecond, Trace: true,
		OutDir: t.TempDir(), SpanDir: t.TempDir()}
	var runs [2]report
	for i := range runs {
		rep, err := runSimConfigs(opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Fatalf("run %d: %d of %d ops failed", i, rep.Failed, rep.Attempted)
		}
		runs[i] = rep
	}
	for _, name := range countMetrics {
		a, b := runs[0].Metrics[name], runs[1].Metrics[name]
		if a != b || a <= 0 && name != "cpu.preemptions" {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
}

// TestWorkloadsShort runs every workload briefly in both modes: every
// check must pass and every metric of the mode must be measured.
func TestWorkloadsShort(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{Workload: name, Seed: 3, Window: 300 * time.Millisecond, Trace: traced,
				OutDir: t.TempDir(), SpanDir: t.TempDir()}
			rep, err := run(opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 || rep.Invalid != "" {
				t.Errorf("%s traced=%v: %d of %d failed, invalid %q", name, traced, rep.Failed, rep.Attempted, rep.Invalid)
			}
			if traced {
				continue
			}
			for _, d := range endToEnd {
				if v, ok := rep.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("%s: %s = %v, want a positive measurement", name, d.Name, v)
				}
			}
		}
	}
}

// TestCheckpointRoundTrip saves each sim-configs job's final state,
// restores it and saves again: the bytes must not change.
func TestCheckpointRoundTrip(t *testing.T) {
	jobs, err := simConfigJobs(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		p, err := probeCheckpoint(j)
		if err != nil {
			t.Fatal(err)
		}
		if !p.RoundTrip {
			t.Errorf("%s: Save → Restore → Save changed the checkpoint (%d bytes)", j.Name, p.Bytes)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// ones the program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the program %s %s %s",
					kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, d := range perLayer {
		if d.Moves == "" || d.On == "" {
			t.Errorf("per-layer %s does not say what it moves and where", d.Name)
		}
	}
	for _, w := range doc.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
	}
	if len(doc.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Work), len(workloads))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestLogHist(t *testing.T) {
	var h logHist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got > want || got < want*0.93 {
			t.Errorf("quantile(%v) = %v, want within 7%% below %v", q, got, want)
		}
	}
	// Buckets past bucketOf(math.MaxUint64) hold no value.
	for b := 0; b <= bucketOf(math.MaxUint64); b++ {
		if lo := bucketLow(b); bucketOf(lo) != b {
			t.Fatalf("bucket %d: low edge %d maps to bucket %d", b, lo, bucketOf(lo))
		}
	}
}
