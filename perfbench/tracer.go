package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one request share Trace; Parent is
// the ID of the span that caused this one (-1 for a request's root).
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Spine  string `json:"spine"` // "local" or "dist"
	Name   string `json:"name"`
	Query  int    `json:"query"`
	Start  int64  `json:"start_ns"` // since the tracer started
	Dur    int64  `json:"dur_ns"`
	// Alloc is the runtime.MemStats TotalAlloc delta over the call, by any
	// goroutine of the process.
	Alloc uint64 `json:"alloc_bytes"`

	alloc0 uint64
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	trace int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) newTrace() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.trace++
	return tr.trace
}

// begin opens a span and returns its ID.
func (tr *tracer) begin(trace, parent int, spine, name string, q int) int {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Trace: trace, ID: id, Parent: parent, Spine: spine, Name: name, Query: q,
		Start: int64(time.Since(tr.t0)), alloc0: m.TotalAlloc})
	return id
}

// end closes span id and returns its duration.
func (tr *tracer) end(id int) time.Duration {
	now := int64(time.Since(tr.t0))
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id]
	s.Dur = now - s.Start
	s.Alloc = m.TotalAlloc - s.alloc0
	return time.Duration(s.Dur)
}

// do records fn as a child span of parent.
func (tr *tracer) do(trace, parent int, spine, name string, q int, fn func()) {
	id := tr.begin(trace, parent, spine, name, q)
	fn()
	tr.end(id)
}

// durations returns the durations of every span with this spine and name.
func (tr *tracer) durations(spine, name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Spine == spine && s.Name == name {
			out = append(out, float64(s.Dur))
		}
	}
	return out
}

// meanAlloc is the mean allocation of the spans with this spine and name.
func (tr *tracer) meanAlloc(spine, name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var sum, n float64
	for _, s := range tr.spans {
		if s.Spine == spine && s.Name == name {
			sum += float64(s.Alloc)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// meanUS is the mean duration in microseconds of the matching spans.
func (tr *tracer) meanUS(spine, name string) float64 { return mean(tr.durations(spine, name)) / 1e3 }

// write stores the spans as JSON in dir/name.
func (tr *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
