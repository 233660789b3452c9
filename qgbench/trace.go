package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call.
type span struct {
	ID     int
	Parent int // 0 = root
	Job    int
	Name   string // "<layer>.<function>", e.g. "statevec.Execute"
	Start  time.Duration
	End    time.Duration
}

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do times fn as a span named name under parent, for job; fn receives
// the new span's id so nested calls can name it as their parent. A nil
// recorder just runs fn.
func (r *recorder) do(name string, parent, job int, fn func(id int) error) error {
	if r == nil {
		return fn(0)
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Job: job, Name: name})
	r.mu.Unlock()
	start := time.Since(r.t0)
	err := fn(id)
	end := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	r.mu.Unlock()
	return err
}

// selfTime returns, per layer, the summed span durations minus the time
// their direct children cover, in seconds.
func (r *recorder) selfTime() map[string]float64 {
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range r.spans {
		self[s.layer()] += (s.End - s.Start - child[s.ID]).Seconds()
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // start, microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON; each job is
// its own track.
func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Job,
			Args: map[string]int{"span": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
