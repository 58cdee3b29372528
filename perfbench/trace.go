package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); Req ties together the spans of one
// request (an ingest delta's sequence number), 0 when none.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Req    uint64        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the measured code paths are the
// same with tracing on or off apart from the recording itself.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// ambient is the span wrappers inside the program attach their spans to
	// when the call chain does not carry one (the durable FS and the publish
	// hook run under whatever apply or open is in progress).
	ambient atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// setAmbient makes id the parent of spans opened by program-side wrappers
// and returns the previous ambient span.
func (t *tracer) setAmbient(id int) int {
	if t == nil {
		return 0
	}
	return int(t.ambient.Swap(int64(id)))
}

func (t *tracer) ambientSpan() int {
	if t == nil {
		return 0
	}
	return int(t.ambient.Load())
}

// closed returns a copy of the finished spans with their self times filled in.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []span
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	self := selfTimes(out)
	for i := range out {
		out[i].Self = self[i]
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its children. Children may overlap one another (parallel
// work under one parent) and may outlive the parent; only the union of their
// intervals clipped to the parent's counts, so self time is never negative.
func selfTimes(spans []span) []time.Duration {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if _, ok := index[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered time.Duration
		cur := s.Start // everything before cur is already counted
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// write stores the finished spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	blob, err := json.Marshal(t.closed())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
