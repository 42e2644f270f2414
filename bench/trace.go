package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the harness into a layer's public function.
// Spans of one tick share its number; Parent is the id of the span the
// call was made under, -1 for a root. A span's self time is its duration
// minus the part its children cover.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Tick   int    `json:"tick"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, tick, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Tick: tick, Parent: parent})
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes span id and returns how long it took, in ms.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return float64(s.End-s.Start) / 1e6
}

// call records fn as one span and returns its duration in ms.
func (t *tracer) call(name string, tick, parent int, fn func()) float64 {
	id := t.begin(name, tick, parent)
	fn()
	return t.end(id)
}

// perTick sums the named spans' durations by tick, in ms, for ticks in
// [from, to).
func (t *tracer) perTick(name string, from, to int) []float64 {
	out := make([]float64, to-from)
	seen := false
	for _, s := range t.spans {
		if s.Name == name && s.Tick >= from && s.Tick < to {
			out[s.Tick-from] += float64(s.End-s.Start) / 1e6
			seen = true
		}
	}
	if !seen {
		return nil
	}
	return out
}

// write stores the spans as JSON lines in bench/out/<workload>.trace.jsonl.
func (t *tracer) write(workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
