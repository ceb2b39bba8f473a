package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecorder keeps the benchmark's own spans in memory — one per
// public call the benchmark makes (solve, iteration, RPC, job) — and
// writes them out when the run ends. A disabled recorder hands out nil
// spans, whose methods do nothing, so untraced runs pay one nil check
// per call site.
type spanRecorder struct {
	mu    sync.Mutex
	spans []*span
	next  atomic.Uint64
}

// span is one timed interval. Spans of one solve or job share TraceID.
type span struct {
	rec     *spanRecorder
	Name    string            `json:"name"`
	TraceID uint64            `json:"trace_id"`
	ID      uint64            `json:"span_id"`
	Parent  uint64            `json:"parent_id,omitempty"`
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

func newSpanRecorder(enabled bool) *spanRecorder {
	if !enabled {
		return nil
	}
	return &spanRecorder{}
}

// start opens a root span (parent nil) or a child of parent.
func (r *spanRecorder) start(name string, parent *span) *span {
	if r == nil {
		return nil
	}
	s := &span{rec: r, Name: name, ID: r.next.Add(1), Start: time.Now()}
	if parent != nil {
		s.TraceID, s.Parent = parent.TraceID, parent.ID
	} else {
		s.TraceID = s.ID
	}
	return s
}

// finish closes the span at the current time and files it.
func (s *span) finish() {
	if s == nil {
		return
	}
	s.End = time.Now()
	s.rec.mu.Lock()
	s.rec.spans = append(s.rec.spans, s)
	s.rec.mu.Unlock()
}

func (s *span) attr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[k] = v
}

func (s *span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// durations returns the durations in seconds of every finished span
// with the given name.
func (r *spanRecorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// writeFile stores every span as one JSON line.
func (r *spanRecorder) writeFile(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	return f.Close()
}
