package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// cycle, delta or interaction share Op; Parent is the ID of the span
// that caused it (0 for a root).
type Span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 1 << 20

// Tracer keeps spans in memory until the run ends. A nil or disabled
// Tracer records nothing, so untraced runs pay only the nil check.
type Tracer struct {
	mu      sync.Mutex
	spans   []Span
	dropped int
}

// Record stores a finished span and returns its ID (0 when t is nil).
func (t *Tracer) Record(name string, op int64, parent int32, start, end time.Duration) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{Name: name, Op: op, ID: id, Parent: parent, Start: int64(start), End: int64(end)})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Durations returns the wall times (ms) of every span with the name.
func (t *Tracer) Durations(name string) *Samples {
	s := &Samples{}
	for _, sp := range t.Spans() {
		if sp.Name == name {
			s.Add(sp.Dur())
		}
	}
	return s
}

// SelfTimes returns, per span name, the total self time: each span's
// duration minus the part its direct children cover.
func (t *Tracer) SelfTimes() map[string]time.Duration {
	spans := t.Spans()
	child := make(map[int32]time.Duration, len(spans))
	for _, sp := range spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.Dur()
		}
	}
	self := map[string]time.Duration{}
	for _, sp := range spans {
		d := sp.Dur() - child[sp.ID]
		if d < 0 {
			d = 0
		}
		self[sp.Name] += d
	}
	return self
}

// Coverage sums, over every root span with the name, the part of its
// duration its direct children cover, as a share of the roots' total
// duration. A critical path fully tiled by child spans reads 1.
func (t *Tracer) Coverage(root string) float64 {
	spans := t.Spans()
	roots := map[int32]bool{}
	var total, covered time.Duration
	for _, sp := range spans {
		if sp.Name == root && sp.Parent == 0 {
			roots[sp.ID] = true
			total += sp.Dur()
		}
	}
	for _, sp := range spans {
		if roots[sp.Parent] {
			covered += sp.Dur()
		}
	}
	return ratio(float64(covered), float64(total))
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
