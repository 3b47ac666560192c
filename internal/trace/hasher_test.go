package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// digestEvents returns n events whose rows add up to several digest
// chunks, with names of varying length so chunk boundaries fall at
// different offsets within a row.
func digestEvents(n int) []Event {
	kinds := []Kind{Dispatch, Charge, Wake, Block, Exit, Interrupt, Idle}
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			At:       sim.Time(i) * sim.Microsecond,
			Kind:     kinds[i%len(kinds)],
			Thread:   fmt.Sprintf("thread-%0*d", i%13, i),
			ThreadID: i % 17,
			Used:     sched.Work(i * 31),
			Runnable: i%3 == 0,
			Service:  sim.Time(i % 5),
			Core:     i % 4,
		}
	}
	return out
}

// TestRowDigestMatchesPerRowSHA256 samples Sum across several 4 KiB
// chunk boundaries and compares each sample with a reference that
// hashes every row as it arrives: chunking must not move any prefix
// digest, whether Sum is taken after every row, now and then, or only
// at the end.
func TestRowDigestMatchesPerRowSHA256(t *testing.T) {
	events := digestEvents(1000)
	for _, numCores := range []int{1, 2} {
		ref := sha256.New()
		var row []byte
		every := NewRowDigest(numCores)
		sparse := NewRowDigest(numCores)
		final := NewRowDigest(numCores)
		bytes := 0
		for i, e := range events {
			row = AppendRow(row[:0], e, numCores)
			ref.Write(row)
			bytes += len(row)
			want := hex.EncodeToString(ref.Sum(nil))
			every.Add(e)
			sparse.Add(e)
			final.Add(e)
			if got := every.Sum(); got != want {
				t.Fatalf("cores %d row %d: per-row Sum %s, reference %s", numCores, i, got, want)
			}
			if i%97 == 0 {
				if got := sparse.Sum(); got != want {
					t.Fatalf("cores %d row %d: sparse Sum %s, reference %s", numCores, i, got, want)
				}
			}
		}
		if bytes < 3*digestChunk {
			t.Fatalf("only %d row bytes: the test must span several chunks", bytes)
		}
		want := hex.EncodeToString(ref.Sum(nil))
		if final.Sum() != want || sparse.Sum() != want || final.Rows() != len(events) {
			t.Fatalf("cores %d: final %s (%d rows), sparse %s, reference %s",
				numCores, final.Sum(), final.Rows(), sparse.Sum(), want)
		}
	}
}

// TestHasherIsRowDigest pins the listener to the digest of the events it
// was fed, in both the single-core and the core-tagged row forms.
func TestHasherIsRowDigest(t *testing.T) {
	th := sched.NewThread(3, "dec", 1)
	for _, numCores := range []int{1, 2} {
		h := NewHasher()
		h.SetNumCores(numCores)
		h.OnWake(th, 1)
		h.OnDispatchCore(1, th, 2)
		h.OnInterrupt(3, 4)
		h.OnChargeCore(1, th, 5, 6, true)
		h.OnBlock(th, 7)
		h.OnIdleCore(1, 8)
		h.OnExit(th, 9)
		d := NewRowDigest(numCores)
		for _, e := range []Event{
			{At: 1, Kind: Wake, Thread: "dec", ThreadID: 3},
			{At: 2, Kind: Dispatch, Thread: "dec", ThreadID: 3, Core: 1},
			{At: 3, Kind: Interrupt, Service: 4},
			{At: 6, Kind: Charge, Thread: "dec", ThreadID: 3, Used: 5, Runnable: true, Core: 1},
			{At: 7, Kind: Block, Thread: "dec", ThreadID: 3},
			{At: 8, Kind: Idle, Core: 1},
			{At: 9, Kind: Exit, Thread: "dec", ThreadID: 3},
		} {
			d.Add(e)
		}
		if h.Sum() != d.Sum() || h.Rows() != 7 {
			t.Fatalf("cores %d: hasher %s (%d rows), digest %s", numCores, h.Sum(), h.Rows(), d.Sum())
		}
	}
}

func feedHasher(h *Hasher, th *sched.Thread) {
	h.OnDispatch(th, 10)
	h.OnCharge(th, 1000, 20, true)
	h.OnInterrupt(25, 3)
	h.OnIdle(30)
	h.OnDispatchCore(1, th, 40)
	h.OnChargeCore(1, th, 500, 50, false)
	h.OnIdleCore(1, 60)
}

// TestHasherZeroAllocs guards the digest's per-event path: row text is
// built without fmt into a preallocated chunk buffer.
func TestHasherZeroAllocs(t *testing.T) {
	th := sched.NewThread(1, "worker", 1)
	for _, numCores := range []int{1, 2} {
		h := NewHasher()
		h.SetNumCores(numCores)
		allocs := testing.AllocsPerRun(1000, func() { feedHasher(h, th) })
		if allocs != 0 {
			t.Fatalf("cores %d: Hasher allocates %v times per 7 events, want 0", numCores, allocs)
		}
	}
}

// BenchmarkHasher measures one op of seven events — every listener
// callback the machine makes on a two-core run — folded into the digest.
func BenchmarkHasher(b *testing.B) {
	th := sched.NewThread(1, "worker", 1)
	h := NewHasher()
	h.SetNumCores(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feedHasher(h, th)
	}
}
