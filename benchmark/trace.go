package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// The layers are called one at a time from outside, so spans do not overlap
// in time; Parent is the call that would have made this one inside the
// product (README.md, "Reading the trace file").
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into spans; -1 for a root
	Op     int    `json:"op"`     // position in the op stream; -1 for a set-up span
	// YardMS is the yardstick of the stretch the span was timed in:
	// (End-Start) ÷ YardMS × 4 ms is its duration in reference time.
	YardMS float64 `json:"yard_ms,omitempty"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

// end closes a span and returns its duration in ms.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id]
	s.End = int64(time.Since(r.t0))
	return ms(time.Duration(s.End - s.Start))
}

// time runs fn as a span and returns the span's index and duration in ms.
func (r *recorder) time(name string, parent, op int, fn func()) (int, float64) {
	id := r.begin(name, parent, op)
	fn()
	return id, r.end(id)
}

// traceFile is the layout of out/<workload>.trace.json.
type traceFile struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	YardstickRefMS float64 `json:"yardstick_ref_ms"`
	Spans          []span  `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, YardstickRefMS: yardstickRefMS, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
