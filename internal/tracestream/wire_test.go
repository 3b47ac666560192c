package tracestream

import (
	"bytes"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
	"hsfq/internal/trace"
)

func TestWireRoundTrip(t *testing.T) {
	meta := []trace.ThreadMeta{
		{TID: 1, Name: "dec", Depth: 1, Path: "/soft"},
		{TID: 2, Name: "hog", Depth: 2, Path: "/be/user1"},
	}
	events := []trace.Event{
		{At: 0, Kind: trace.Dispatch, Thread: "dec", ThreadID: 1},
		{At: 10, Kind: trace.Charge, Thread: "dec", ThreadID: 1, Used: 7, Runnable: true},
		{At: 10, Kind: trace.Interrupt, Service: 100},
		{At: 20, Kind: trace.Idle, Core: 3},
		{At: 30, Kind: trace.Block, Thread: "hog", ThreadID: 2},
	}
	var stream []byte
	stream = AppendHeaderFrame(stream, 4)
	stream = AppendThreadsFrame(stream, meta)
	for _, e := range events {
		stream = AppendEventFrame(stream, e)
	}
	stream = AppendDropFrame(stream, 42)
	stream = AppendEndFrame(stream, len(events), "abc123")

	dec := NewDecoder()
	// Feed byte-by-byte to exercise incremental reassembly.
	var frames []*Frame
	for i := 0; i < len(stream); i++ {
		dec.Feed(stream[i : i+1])
		for {
			f, err := dec.Next()
			if err != nil {
				t.Fatalf("decode at byte %d: %v", i, err)
			}
			if f == nil {
				break
			}
			frames = append(frames, f)
		}
	}
	if len(frames) != 2+len(events)+2 {
		t.Fatalf("got %d frames, want %d", len(frames), 2+len(events)+2)
	}
	if frames[0].Type != frameHeader || frames[0].NumCores != 4 || frames[0].Version != Version {
		t.Fatalf("header: %+v", frames[0])
	}
	if dec.NumCores() != 4 {
		t.Fatalf("decoder NumCores = %d", dec.NumCores())
	}
	if frames[1].Type != frameThreads || len(frames[1].Threads) != 2 || frames[1].Threads[1].Path != "/be/user1" {
		t.Fatalf("threads: %+v", frames[1])
	}
	for i, e := range events {
		got := frames[2+i]
		if got.Type != frameEvent {
			t.Fatalf("frame %d type %d", i, got.Type)
		}
		// Canonical rows must round-trip exactly (the digest depends on it).
		want := trace.RowText(e, 4)
		if have := trace.RowText(got.Event, 4); have != want {
			t.Fatalf("event %d row = %q, want %q", i, have, want)
		}
	}
	if d := frames[len(frames)-2]; d.Type != frameDrop || d.Dropped != 42 {
		t.Fatalf("drop: %+v", d)
	}
	if e := frames[len(frames)-1]; e.Type != frameEnd || e.Rows != uint64(len(events)) || e.Digest != "abc123" {
		t.Fatalf("end: %+v", e)
	}
}

func TestDecoderResolvesNames(t *testing.T) {
	var stream []byte
	stream = AppendHeaderFrame(stream, 1)
	stream = AppendThreadsFrame(stream, []trace.ThreadMeta{{TID: 7, Name: "editor", Depth: 2, Path: "/be/user2"}})
	stream = AppendEventFrame(stream, trace.Event{At: 5, Kind: trace.Wake, Thread: "editor", ThreadID: 7})
	dec := NewDecoder()
	dec.Feed(stream)
	var ev *Frame
	for {
		f, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			break
		}
		if f.Type == frameEvent {
			ev = f
		}
	}
	if ev == nil || ev.Event.Thread != "editor" {
		t.Fatalf("name not resolved: %+v", ev)
	}
}

func TestDecoderRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":      appendFrame(nil, append([]byte{frameHeader}, []byte("NOTTS!\x01\x01")...)),
		"bad version":    appendFrame(nil, append([]byte{frameHeader}, append([]byte(Magic), 99, 1)...)),
		"empty frame":    {0},
		"unknown type":   appendFrame(nil, []byte{0x7f}),
		"huge length":    {0xff, 0xff, 0xff, 0xff, 0x7f},
		"bad event kind": appendFrame(nil, []byte{frameEvent, 0xee, 0, 0, 0, 0, 0, 0}),
		"truncated body": appendFrame(nil, []byte{frameEvent, 0}),
	}
	for name, in := range cases {
		dec := NewDecoder()
		dec.Feed(in)
		var err error
		for i := 0; i < 10; i++ {
			var f *Frame
			f, err = dec.Next()
			if err != nil || f == nil {
				break
			}
		}
		if err == nil {
			t.Errorf("%s: decoder accepted malformed input %x", name, in)
			continue
		}
		// Errors are sticky.
		if _, err2 := dec.Next(); err2 == nil {
			t.Errorf("%s: error not sticky", name)
		}
	}
}

// TestKindCodesPinned holds the wire codes to the table the format was
// published with: kindCode and codeKinds may be rewritten, but no kind
// may ever be renumbered.
func TestKindCodesPinned(t *testing.T) {
	published := map[trace.Kind]byte{
		trace.Dispatch:  0,
		trace.Charge:    1,
		trace.Wake:      2,
		trace.Block:     3,
		trace.Exit:      4,
		trace.Interrupt: 5,
		trace.Idle:      6,
	}
	if len(codeKinds) != len(published) {
		t.Fatalf("codeKinds has %d codes, the format %d", len(codeKinds), len(published))
	}
	for k, c := range published {
		if got := kindCode(k); got != c {
			t.Errorf("kindCode(%s) = %d, format says %d", k, got, c)
		}
		if codeKinds[c] != k {
			t.Errorf("codeKinds[%d] = %s, format says %s", c, codeKinds[c], k)
		}
		dec := NewDecoder()
		dec.Feed(AppendEventFrame(nil, trace.Event{At: 3, Kind: k}))
		if f, err := dec.Next(); err != nil || f == nil || f.Event.Kind != k {
			t.Errorf("%s: round trip gave %+v, %v", k, f, err)
		}
	}
	if got := kindCode("unknown"); got != 0xff {
		t.Errorf("kindCode(unknown) = %#x, want 0xff", got)
	}
	dec := NewDecoder()
	dec.Feed(AppendEventFrame(nil, trace.Event{Kind: "unknown"}))
	if _, err := dec.Next(); err == nil {
		t.Error("decoder accepted an event of unknown kind")
	}
}

func TestDecoderCompaction(t *testing.T) {
	// Many small feeds with interleaved frame boundaries must not grow the
	// internal buffer without bound.
	dec := NewDecoder()
	frame := AppendEventFrame(nil, trace.Event{At: 1, Kind: trace.Idle})
	for i := 0; i < 100000; i++ {
		dec.Feed(frame)
		f, err := dec.Next()
		if err != nil || f == nil {
			t.Fatalf("iter %d: %v %v", i, f, err)
		}
	}
	if len(dec.buf)-dec.off > len(frame) {
		t.Fatalf("decoder retained %d unconsumed bytes", len(dec.buf)-dec.off)
	}
}

func TestEventFrameNegativeValuesRoundTrip(t *testing.T) {
	// Wire uses uvarints; int64 values round-trip through uint64 casts.
	e := trace.Event{At: sim.Time(-1), Kind: trace.Charge, ThreadID: 3, Used: sched.Work(-5)}
	stream := AppendEventFrame(nil, e)
	dec := NewDecoder()
	dec.Feed(stream)
	f, err := dec.Next()
	if err != nil || f == nil {
		t.Fatalf("decode: %v %v", f, err)
	}
	if f.Event.At != e.At || f.Event.Used != e.Used {
		t.Fatalf("round-trip: %+v", f.Event)
	}
}

func FuzzTraceFrameDecode(f *testing.F) {
	var seed []byte
	seed = AppendHeaderFrame(seed, 2)
	seed = AppendThreadsFrame(seed, []trace.ThreadMeta{{TID: 1, Name: "dec", Depth: 1, Path: "/soft"}})
	seed = AppendEventFrame(seed, trace.Event{At: 10, Kind: trace.Charge, Thread: "dec", ThreadID: 1, Used: 5, Runnable: true, Core: 1})
	seed = AppendDropFrame(seed, 3)
	seed = AppendEndFrame(seed, 1, "deadbeef")
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(AppendHeaderFrame(nil, 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder must never panic, loop forever, or retain unbounded
		// state, whatever the input. Feed in two chunks to cover the
		// incremental path.
		dec := NewDecoder()
		half := len(data) / 2
		dec.Feed(data[:half])
		for i := 0; i < len(data)+2; i++ {
			f, err := dec.Next()
			if err != nil {
				return
			}
			if f == nil {
				break
			}
		}
		dec.Feed(data[half:])
		for i := 0; i < len(data)+2; i++ {
			f, err := dec.Next()
			if err != nil {
				return
			}
			if f == nil {
				return
			}
		}
	})
}
