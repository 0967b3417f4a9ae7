package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own files around the call into the layer. Spans of one
// input share ID; Parent names the span of the enclosing layer (0 for the
// outermost). The stack probes replay one input at every boundary in
// turn, so a child's wall-clock interval follows its parent's rather than
// lying inside it: what nests is the layering, and a layer's self time is
// its span's duration minus its children's.
type span struct {
	ID     uint64 `json:"id"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// maxSpansPerBuf bounds memory and trace-file size; recording stops (and
// is counted as dropped) beyond it.
const maxSpansPerBuf = 1 << 16

// tracer hands out span buffers, one per recording goroutine, so the
// recording path takes no lock; everything stays in memory until write.
type tracer struct {
	t0   time.Time
	next atomic.Uint64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanBuf struct {
	tr      *tracer
	spans   []span
	dropped int
}

func (tr *tracer) buf() *spanBuf {
	b := &spanBuf{tr: tr}
	tr.mu.Lock()
	tr.bufs = append(tr.bufs, b)
	tr.mu.Unlock()
	return b
}

// newID returns a fresh identifier (for an input, or for a span).
func (tr *tracer) newID() uint64 { return tr.next.Add(1) }

// add records one span and returns its span number, for children to name
// as their parent.
func (b *spanBuf) add(id, parent uint64, name string, start, end time.Time) uint64 {
	n := b.tr.newID()
	if len(b.spans) >= maxSpansPerBuf {
		b.dropped++
		return n
	}
	b.spans = append(b.spans, span{
		ID: id, Span: n, Parent: parent, Name: name,
		Start: start.Sub(b.tr.t0).Nanoseconds(), End: end.Sub(b.tr.t0).Nanoseconds(),
	})
	return n
}

// all gathers every recorded span, ordered by start time.
func (tr *tracer) all() (spans []span, dropped int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, b := range tr.bufs {
		spans = append(spans, b.spans...)
		dropped += b.dropped
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans, dropped
}

// write dumps the trace as JSON.
func (tr *tracer) write(path string) error {
	spans, dropped := tr.all()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped int    `json:"dropped_spans"`
		Spans   []span `json:"spans"`
	}{dropped, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes computes, per span name, the self time (ns) of every span:
// its duration minus the durations of the spans naming it as parent,
// floored at zero (replayed children are timed separately, so noise can
// make them sum past their parent).
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := (s.End - s.Start) - children[s.Span]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self))
	}
	return out
}

// durations groups span durations (ns) by name.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}
