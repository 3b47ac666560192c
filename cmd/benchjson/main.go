// Command benchjson compares two `go test -bench` output files (as produced
// by `make bench`) and writes a JSON summary with per-benchmark medians and
// deltas. It understands the standard benchmark line format
//
//	BenchmarkName/sub-4   1000000   123.4 ns/op   16 B/op   2 allocs/op
//
// plus the custom whole-run throughput metric some benchmarks report:
//
//	BenchmarkSimThroughput-4   10   1.2e7 ns/op   825.1 sim_ns/wall_ns
//
// and aggregates repeated counts of the same benchmark by median, which is
// what benchstat reports as the center.
//
// Schema (version 2): the report carries a schema_version field, machine
// metadata (go version, GOOS/GOARCH, GOMAXPROCS, CPU count) describing
// where benchjson ran — in the make bench workflow, the same machine that
// ran the benchmarks — and a "throughput" section listing the
// simulated-ns-per-wall-ns medians for every benchmark that reports one.
// Version-1 files (BENCH_PR1/PR2) have no schema_version, no machine, and
// no throughput section; their "benchmarks" entries read identically (see
// DESIGN.md's compatibility note).
//
// Usage:
//
//	benchjson -before old.txt -after new.txt -o BENCH_PR1.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// schemaVersion gates encoding changes to the report layout. Bump it when
// renaming or re-interpreting fields, not when adding optional sections.
const schemaVersion = 2

type sample struct {
	nsPerOp  []float64
	bPerOp   []float64
	allocsOp []float64
	simPerNs []float64 // the sim_ns/wall_ns throughput metric
}

type result struct {
	Name           string  `json:"name"`
	BeforeNsOp     float64 `json:"before_ns_op"`
	AfterNsOp      float64 `json:"after_ns_op"`
	DeltaPct       float64 `json:"delta_pct"`
	BeforeBytesOp  float64 `json:"before_bytes_op"`
	AfterBytesOp   float64 `json:"after_bytes_op"`
	BeforeAllocsOp float64 `json:"before_allocs_op"`
	AfterAllocsOp  float64 `json:"after_allocs_op"`
}

// throughput is one benchmark's whole-run speed: how many nanoseconds of
// simulated time one nanosecond of wall clock buys. Bigger is faster.
type throughput struct {
	Name     string  `json:"name"`
	Before   float64 `json:"before_sim_ns_per_wall_ns"`
	After    float64 `json:"after_sim_ns_per_wall_ns"`
	DeltaPct float64 `json:"delta_pct"`
}

// machineInfo records where the comparison ran, so historical BENCH files
// are interpretable: a throughput regression on a different core count is
// not a regression.
type machineInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

type report struct {
	SchemaVersion int          `json:"schema_version"`
	Unit          string       `json:"unit"`
	Center        string       `json:"center"`
	Machine       machineInfo  `json:"machine"`
	Benchmarks    []result     `json:"benchmarks"`
	Throughput    []throughput `json:"throughput,omitempty"`
}

func main() {
	var (
		beforePath = flag.String("before", "", "benchmark output before the change")
		afterPath  = flag.String("after", "", "benchmark output after the change")
		outPath    = flag.String("o", "", "output JSON file (default stdout)")
	)
	flag.Parse()
	if *beforePath == "" || *afterPath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -before and -after are required")
		os.Exit(2)
	}
	before, err := parseFile(*beforePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	after, err := parseFile(*afterPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	var names []string
	for name := range before {
		if _, ok := after[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	rep := report{
		SchemaVersion: schemaVersion,
		Unit:          "ns/op",
		Center:        "median",
		Machine: machineInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
	}
	for _, name := range names {
		b, a := before[name], after[name]
		bn, an := median(b.nsPerOp), median(a.nsPerOp)
		rep.Benchmarks = append(rep.Benchmarks, result{
			Name:           name,
			BeforeNsOp:     bn,
			AfterNsOp:      an,
			DeltaPct:       round2((an - bn) / bn * 100),
			BeforeBytesOp:  median(b.bPerOp),
			AfterBytesOp:   median(a.bPerOp),
			BeforeAllocsOp: median(b.allocsOp),
			AfterAllocsOp:  median(a.allocsOp),
		})
		if len(b.simPerNs) > 0 || len(a.simPerNs) > 0 {
			bt, at := median(b.simPerNs), median(a.simPerNs)
			tp := throughput{Name: name, Before: bt, After: at}
			if bt != 0 {
				tp.DeltaPct = round2((at - bt) / bt * 100)
			}
			rep.Throughput = append(rep.Throughput, tp)
		}
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if *outPath == "" {
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(*outPath, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parseFile(path string) (map[string]*sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string]*sample)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Keep the name verbatim (including any -GOMAXPROCS suffix), as
		// benchstat does; stripping would collide sub-benchmarks whose own
		// names end in a number.
		name := fields[0]
		s := out[name]
		if s == nil {
			s = &sample{}
			out[name] = s
		}
		// Fields after the iteration count come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = append(s.nsPerOp, v)
			case "B/op":
				s.bPerOp = append(s.bPerOp, v)
			case "allocs/op":
				s.allocsOp = append(s.allocsOp, v)
			case "sim_ns/wall_ns":
				s.simPerNs = append(s.simPerNs, v)
			}
		}
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func round2(x float64) float64 {
	return float64(int64(x*100+copySign(0.5, x))) / 100
}

func copySign(mag, sign float64) float64 {
	if sign < 0 {
		return -mag
	}
	return mag
}
