package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"

	"hsfq/internal/cpu"
	"hsfq/internal/sched"
	"hsfq/internal/sim"
)

// digestChunk is how many bytes of row text RowDigest gathers before
// handing them to SHA-256: one Write per chunk instead of per row.
const digestChunk = 4096

// RowDigest folds canonical event rows (AppendRow) into a running
// SHA-256. It is the one digest of an event stream: Hasher feeds it from
// machine callbacks, the tracestream Broadcaster from the events it
// records, and stream clients from the events they decode. Rows are
// buffered and hashed in chunks; Sum flushes the buffer first, so the
// digest of the stream so far is the same whenever it is sampled.
type RowDigest struct {
	h        hash.Hash
	buf      []byte
	rows     int
	numCores int
}

// NewRowDigest returns an empty digest for a numCores-wide stream.
func NewRowDigest(numCores int) *RowDigest {
	return &RowDigest{h: sha256.New(), numCores: max(numCores, 1)}
}

// Add folds one event into the digest.
func (d *RowDigest) Add(e Event) {
	if d.buf == nil {
		// The margin keeps one long row past the threshold from growing buf.
		d.buf = make([]byte, 0, 2*digestChunk)
	}
	d.buf = AppendRow(d.buf, e, d.numCores)
	d.rows++
	if len(d.buf) >= digestChunk {
		d.flush()
	}
}

func (d *RowDigest) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

// Rows returns how many events have been folded in.
func (d *RowDigest) Rows() int { return d.rows }

// Sum returns the hex digest of the stream so far. It hashes the
// buffered rows first and leaves the running state otherwise untouched,
// so it may be sampled at any event boundary. It also drops the chunk
// buffer, which the next Add reallocates: most digests are summed once,
// at the end of their stream, and a finished recording may outlive its
// run for long in hsfqd's trace cache.
func (d *RowDigest) Sum() string {
	d.flush()
	d.buf = nil
	var sum [sha256.Size]byte
	return hex.EncodeToString(d.h.Sum(sum[:0]))
}

// Hasher is a cpu.Listener that folds every scheduling event into a
// RowDigest instead of storing it. hsfqdiff uses it to compare two runs'
// event streams without holding either in memory, and to grab prefix
// digests at checkpoint instants.
type Hasher struct {
	cpu.BaseListener
	*RowDigest
}

// NewHasher returns an empty stream hasher.
func NewHasher() *Hasher { return &Hasher{RowDigest: NewRowDigest(1)} }

// SetNumCores tells the hasher how many cores feed it; Machine.Listen
// calls it automatically, before any event. Rows from a multicore
// machine gain a trailing core field, so single-core digests are
// unchanged.
func (s *Hasher) SetNumCores(n int) { s.numCores = max(n, 1) }

// OnDispatch implements cpu.Listener.
func (s *Hasher) OnDispatch(t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Dispatch, Thread: t.Name, ThreadID: t.ID})
}

// OnCharge implements cpu.Listener.
func (s *Hasher) OnCharge(t *sched.Thread, used sched.Work, now sim.Time, runnable bool) {
	s.Add(Event{At: now, Kind: Charge, Thread: t.Name, ThreadID: t.ID, Used: used, Runnable: runnable})
}

// OnWake implements cpu.Listener.
func (s *Hasher) OnWake(t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Wake, Thread: t.Name, ThreadID: t.ID})
}

// OnBlock implements cpu.Listener.
func (s *Hasher) OnBlock(t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Block, Thread: t.Name, ThreadID: t.ID})
}

// OnExit implements cpu.Listener.
func (s *Hasher) OnExit(t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Exit, Thread: t.Name, ThreadID: t.ID})
}

// OnInterrupt implements cpu.Listener.
func (s *Hasher) OnInterrupt(now, service sim.Time) {
	s.Add(Event{At: now, Kind: Interrupt, Service: service})
}

// OnIdle implements cpu.Listener.
func (s *Hasher) OnIdle(now sim.Time) {
	s.Add(Event{At: now, Kind: Idle})
}

// OnDispatchCore implements cpu.SMPListener.
func (s *Hasher) OnDispatchCore(core int, t *sched.Thread, now sim.Time) {
	s.Add(Event{At: now, Kind: Dispatch, Thread: t.Name, ThreadID: t.ID, Core: core})
}

// OnChargeCore implements cpu.SMPListener.
func (s *Hasher) OnChargeCore(core int, t *sched.Thread, used sched.Work, now sim.Time, runnable bool) {
	s.Add(Event{At: now, Kind: Charge, Thread: t.Name, ThreadID: t.ID, Used: used, Runnable: runnable, Core: core})
}

// OnIdleCore implements cpu.SMPListener.
func (s *Hasher) OnIdleCore(core int, now sim.Time) {
	s.Add(Event{At: now, Kind: Idle, Core: core})
}
