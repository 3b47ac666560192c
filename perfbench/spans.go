package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// Op; Parent indexes the enclosing span (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, after the measurements. A nil *tracer records nothing, so the
// untraced path pays one nil check per boundary. begin and end nest
// spans on one goroutine; add records finished spans from any goroutine.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex // guards spans against concurrent add
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the host time since the tracer's epoch, the spans' time base.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished root span and its direct children.
func (t *tracer) add(root span, children ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root.Parent = -1
	idx := len(t.spans)
	t.spans = append(t.spans, root)
	for _, c := range children {
		c.Parent = idx
		t.spans = append(t.spans, c)
	}
}

// beginOp starts a root span for op number op.
func (t *tracer) beginOp(name string, op int) {
	if t == nil {
		return
	}
	t.op = op
	t.begin(name)
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.now()})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = t.now()
	t.stack = t.stack[:n]
}

// selfByOp returns, per op, each span name's total self time in ms: a
// span's duration minus the durations of its direct children. Calls on
// one goroutine nest without overlap, so the children's sum is exactly
// the covered part of the interval.
func (t *tracer) selfByOp() map[int]map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]map[string]float64{}
	for i, s := range t.spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]float64{}
			out[s.Op] = m
		}
		m[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// medianSelf returns the median over ops of each listed span name's self
// time. Only ops holding at least one span of the list take part; among
// those, an op lacking a name counts as 0 for it.
func (t *tracer) medianSelf(names ...string) map[string]float64 {
	var ops []map[string]float64
	for _, m := range t.selfByOp() {
		for _, name := range names {
			if _, ok := m[name]; ok {
				ops = append(ops, m)
				break
			}
		}
	}
	out := map[string]float64{}
	for _, name := range names {
		xs := make([]float64, len(ops))
		for i, m := range ops {
			xs[i] = m[name]
		}
		out[name] = median(xs)
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}
