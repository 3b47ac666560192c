package trace

import (
	"fmt"
	"math"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// fmtRow is the row format's spec: the fmt code AppendRow replaced.
// Every trace digest ever published hashes these bytes, so AppendRow
// must reproduce them exactly.
func fmtRow(buf []byte, e Event, numCores int) []byte {
	buf = fmt.Appendf(buf, "%d,%s,%s,%d,%d,%t,%d",
		int64(e.At), e.Kind, e.Thread, e.ThreadID, int64(e.Used), e.Runnable, int64(e.Service))
	if numCores > 1 {
		buf = fmt.Appendf(buf, ",%d", e.Core)
	}
	return append(buf, '\n')
}

func checkRow(t *testing.T, e Event, numCores int) {
	t.Helper()
	prefix := []byte("prev\n")
	want := fmtRow(append([]byte(nil), prefix...), e, numCores)
	got := AppendRow(append([]byte(nil), prefix...), e, numCores)
	if string(got) != string(want) {
		t.Fatalf("AppendRow(%+v, %d) = %q, fmt spec %q", e, numCores, got, want)
	}
}

func TestAppendRowMatchesFmt(t *testing.T) {
	events := []Event{
		{},
		{At: 5, Kind: Dispatch, Thread: "worker", ThreadID: 1},
		{At: 15, Kind: Charge, Thread: "worker", ThreadID: 1, Used: 1000, Runnable: true, Core: 1},
		{At: 7, Kind: Interrupt, Service: 2},
		{At: 20, Kind: Idle, Core: 3},
		{At: -1, Kind: Wake, Thread: "neg", ThreadID: -7, Used: -42, Service: -3, Core: -2},
		{At: math.MaxInt64, Kind: Block, Thread: "max", ThreadID: math.MaxInt, Used: math.MaxInt64,
			Runnable: true, Service: math.MaxInt64, Core: math.MaxInt},
		{At: math.MinInt64, Kind: Exit, Thread: "min", ThreadID: math.MinInt, Used: math.MinInt64,
			Service: math.MinInt64, Core: math.MinInt},
		{At: 1, Kind: Charge, Thread: "a,b\nc%d%s%%", ThreadID: 2},
		{At: 2, Kind: Dispatch, Thread: "décodeur-视频-🎬", ThreadID: 3},
		{At: 3, Kind: Dispatch, Thread: "bad\xff\xfeutf8", ThreadID: 4},
		{At: 4, Kind: "unknown", Thread: "x", ThreadID: 5},
		{At: 4, Kind: "", Thread: "", ThreadID: 0},
		{At: 4, Kind: "k,%v\n", Thread: "x", ThreadID: 5},
	}
	for _, e := range events {
		for _, numCores := range []int{0, 1, 2} {
			checkRow(t, e, numCores)
		}
	}
}

func FuzzAppendRow(f *testing.F) {
	f.Add(int64(5), "dispatch", "worker", 1, int64(0), false, int64(0), 0, 1)
	f.Add(int64(15), "charge", "a,b\nc%d", 2, int64(1000), true, int64(0), 1, 2)
	f.Add(int64(-1), "interrupt", "", 0, int64(0), false, int64(-3), -2, 0)
	f.Add(int64(math.MinInt64), "weird", "décodeur\xff", math.MaxInt, int64(math.MaxInt64), true, int64(math.MinInt64), math.MinInt, 4)
	f.Fuzz(func(t *testing.T, at int64, kind, thread string, tid int, used int64, runnable bool, service int64, core, numCores int) {
		checkRow(t, Event{
			At: sim.Time(at), Kind: Kind(kind), Thread: thread, ThreadID: tid,
			Used: sched.Work(used), Runnable: runnable, Service: sim.Time(service), Core: core,
		}, numCores)
	})
}
