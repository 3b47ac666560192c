package simconfig

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hsfq/internal/sim"
)

const fullConfig = `{
  "rate_mips": 100,
  "horizon": "5s",
  "seed": 7,
  "nodes": [
    {"path": "/hard", "weight": 1, "leaf": "rm", "quantum": "25ms"},
    {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "10ms"},
    {"path": "/be", "weight": 6},
    {"path": "/be/u1", "weight": 1, "leaf": "sfq"},
    {"path": "/be/u2", "weight": 1, "leaf": "svr4"}
  ],
  "threads": [
    {"name": "rt", "leaf": "/hard",
     "program": {"kind": "periodic", "period": "100ms", "cost": "5ms"}},
    {"name": "video", "leaf": "/soft", "weight": 2,
     "program": {"kind": "mpeg", "frames": 5000, "loop": true}},
    {"name": "hog1", "leaf": "/be/u1", "program": {"kind": "loop"}},
    {"name": "hog2", "leaf": "/be/u2", "program": {"kind": "dhrystone", "fault_every": 500, "fault_sleep": "2ms"}},
    {"name": "think", "leaf": "/be/u2", "program": {"kind": "interactive", "think_mean": "100ms"}},
    {"name": "pulse", "leaf": "/be/u1", "program": {"kind": "onoff", "bursts": 5, "off": "500ms"}}
  ],
  "interrupts": [
    {"kind": "periodic", "period": "10ms", "service": "100us"},
    {"kind": "poisson", "rate_per_sec": 20, "service": "50us"},
    {"kind": "burst", "period": "1s", "count": 3, "service": "200us"}
  ]
}`

func TestParseAndBuildFullConfig(t *testing.T) {
	cfg, err := Parse(strings.NewReader(fullConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Horizon.Time() != 5*sim.Second || cfg.Seed != 7 {
		t.Errorf("parsed %+v", cfg)
	}
	s, err := Build(cfg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Threads) != 6 {
		t.Fatalf("%d threads", len(s.Threads))
	}
	s.Run()

	if s.Engine.Now() != 5*sim.Second {
		t.Errorf("clock %v", s.Engine.Now())
	}
	p := s.Periodics["rt"]
	if p == nil || len(p.Slack) < 45 {
		t.Fatalf("periodic did not run: %+v", p)
	}
	if p.MissedDeadlines() != 0 {
		t.Errorf("rt missed %d deadlines", p.MissedDeadlines())
	}
	d := s.Decoders["video"]
	if d == nil || d.FramesDecoded(5*sim.Second) == 0 {
		t.Error("decoder decoded nothing")
	}
	// Shares: hard uses ~16.7% of its budget; soft (2/2 weight) gets the
	// video thread a solid share.
	if s.Machine.Stats().Work == 0 {
		t.Fatal("no work")
	}
}

func TestBuildDeterministic(t *testing.T) {
	run := func() int64 {
		cfg, err := Parse(strings.NewReader(fullConfig))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(cfg, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		var sum int64
		for _, th := range s.Threads {
			sum = sum*31 + int64(th.Done)
		}
		return sum
	}
	if run() != run() {
		t.Error("same config produced different runs")
	}
}

func TestDurationUnmarshal(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"1.5ms"`)); err != nil || d.Time() != 1500*sim.Microsecond {
		t.Errorf("string form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`2500`)); err != nil || d.Time() != 2500 {
		t.Errorf("numeric form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Error("bad duration accepted")
	}
	if err := d.UnmarshalJSON([]byte(`{}`)); err == nil {
		t.Error("object accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := map[string]string{
		"no nodes":        `{"threads":[]}`,
		"unknown leaf":    `{"nodes":[{"path":"/a","leaf":"bogus"}]}`,
		"unknown program": `{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","program":{"kind":"bogus"}}]}`,
		"missing leaf":    `{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/b"}]}`,
		"nameless thread": `{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"leaf":"/a"}]}`,
		"periodic params": `{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","program":{"kind":"periodic"}}]}`,
		"rt non-svr4":     `{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","rt_priority":5}]}`,
		"bad interrupt":   `{"nodes":[{"path":"/a","leaf":"sfq"}],"interrupts":[{"kind":"bogus"}]}`,
	}
	for name, js := range cases {
		cfg, err := Parse(strings.NewReader(js))
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := Build(cfg, BuildOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Unknown fields are rejected at parse time.
	if _, err := Parse(strings.NewReader(`{"bogus_field": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestRemovedQueueFieldRejected pins what happens to configs written
// when the engine's event queue was selectable: strict decoding rejects
// the field and names it, whatever value it carries.
func TestRemovedQueueFieldRejected(t *testing.T) {
	for _, v := range []string{"heap", "wheel"} {
		js := `{"event_queue": "` + v + `", "nodes": [{"path": "/a", "leaf": "sfq"}]}`
		_, err := Parse(strings.NewReader(js))
		if err == nil || !strings.Contains(err.Error(), `"event_queue"`) {
			t.Errorf("event_queue %q: got %v, want an error naming the field", v, err)
		}
	}
}

func TestRTPriorityPlacement(t *testing.T) {
	js := `{
	  "horizon": "2s",
	  "nodes": [{"path": "/svr", "leaf": "svr4"}],
	  "threads": [
	    {"name": "rt", "leaf": "/svr", "rt_priority": 10,
	     "program": {"kind": "periodic", "period": "50ms", "cost": "5ms"}},
	    {"name": "ts", "leaf": "/svr", "program": {"kind": "loop"}}
	  ]
	}`
	cfg, err := Parse(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(cfg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	// RT class preempts TS: the periodic thread gets exactly its 10%.
	p := s.Periodics["rt"]
	if p.MissedDeadlines() != 0 {
		t.Errorf("rt missed %d deadlines under TS load", p.MissedDeadlines())
	}
	rtShare := float64(s.Threads[0].Done) / float64(s.Machine.Stats().Work)
	if math.Abs(rtShare-0.1) > 0.01 {
		t.Errorf("rt share %.3f", rtShare)
	}
}

func TestDefaults(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(cfg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Defaults: 100 MIPS for 30 s, program "loop".
	if s.Engine.Now() != 30*sim.Second {
		t.Errorf("default horizon: %v", s.Engine.Now())
	}
	if got := int64(s.Threads[0].Done); got < 2_999_000_000 {
		t.Errorf("default loop did %d work", got)
	}
}

func TestValidate(t *testing.T) {
	good := `{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a"}]}`
	cfg, err := Parse(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := map[string]string{
		"no nodes":       `{"threads":[]}`,
		"empty path":     `{"nodes":[{"path":"","leaf":"sfq"}]}`,
		"unknown leaf":   `{"nodes":[{"path":"/a","leaf":"bogus"}]}`,
		"dup thread":     `{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a"},{"name":"t","leaf":"/a"}]}`,
		"no such leaf":   `{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/b"}]}`,
		"thread to node": `{"nodes":[{"path":"/a"}],"threads":[{"name":"t","leaf":"/a"}]}`,
		"bad program":    `{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","program":{"kind":"bogus"}}]}`,
		"bad interrupt":  `{"nodes":[{"path":"/a","leaf":"sfq"}],"interrupts":[{"kind":"bogus"}]}`,
	}
	for name, js := range bad {
		cfg, err := Parse(strings.NewReader(js))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBuildSeedOverride checks a BuildOptions seed overrides the config's
// and that the zero options value keeps the config's own.
func TestBuildSeedOverride(t *testing.T) {
	cfg, err := Parse(strings.NewReader(`{"seed":7,"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(cfg, BuildOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.Seed != 99 {
		t.Errorf("override seed = %d, want 99", s.Config.Seed)
	}
	s, err = Build(cfg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.Seed != 7 {
		t.Errorf("config seed = %d, want 7", s.Config.Seed)
	}
}

// TestValidateFieldPaths checks every Validate failure is a *FieldError
// locating the offending JSON field, the contract hsfqd's 400 responses
// are built on.
func TestValidateFieldPaths(t *testing.T) {
	cases := []struct{ js, field string }{
		{`{"threads":[]}`, "nodes"},
		{`{"nodes":[{"path":""}]}`, "nodes[0].path"},
		{`{"nodes":[{"path":"/a","leaf":"bogus"}]}`, "nodes[0].leaf"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"leaf":"/a"}]}`, "threads[0].name"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a"},{"name":"t","leaf":"/a"}]}`, "threads[1].name"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/b"}]}`, "threads[0].leaf"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","program":{"kind":"bogus"}}]}`, "threads[0].program.kind"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"interrupts":[{"kind":"periodic","period":"5ms"},{"kind":"bogus"}]}`, "interrupts[1].kind"},
		{`{"nodes":[{"path":"/a","leaf":"sfq","weight":-1}]}`, "nodes[0].weight"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","weight":-2}]}`, "threads[0].weight"},
		{`{"nodes":[{"path":"/a","leaf":"svr4"}],"threads":[{"name":"t","leaf":"/a","rt_priority":60}]}`, "threads[0].rt_priority"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","start":-1}]}`, "threads[0].start"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","program":{"kind":"periodic","period":-1,"cost":"1ms"}}]}`, "threads[0].program.period"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"interrupts":[{"kind":"periodic"}]}`, "interrupts[0].period"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"interrupts":[{"kind":"poisson","rate_per_sec":-3,"service":"1ms"}]}`, "interrupts[0].rate_per_sec"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"interrupts":[{"kind":"burst","period":"1ms","service":"1us"}]}`, "interrupts[0]"},
		{`{"cores":-2,"nodes":[{"path":"/a","leaf":"sfq"}]}`, "cores"},
		{`{"cores":2,"policy":"gang","nodes":[{"path":"/a","leaf":"sfq"}]}`, "policy"},
		{`{"cores":2,"switch_cost":-1,"nodes":[{"path":"/a","leaf":"sfq"}]}`, "switch_cost"},
		{`{"cores":2,"migration_cost":-1,"nodes":[{"path":"/a","leaf":"sfq"}]}`, "migration_cost"},
		{`{"cores":2,"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","affinity":5}]}`, "threads[0].affinity"},
		{`{"nodes":[{"path":"/a","leaf":"sfq"}],"threads":[{"name":"t","leaf":"/a","affinity":-1}]}`, "threads[0].affinity"},
	}
	for _, tc := range cases {
		cfg, err := Parse(strings.NewReader(tc.js))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.js, err)
		}
		err = cfg.Validate()
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *FieldError", tc.js, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.js, fe.Field, tc.field)
		}
		if !strings.HasPrefix(fe.Error(), "simconfig: ") {
			t.Errorf("%s: error %q lost the package prefix", tc.js, fe.Error())
		}
	}
}
