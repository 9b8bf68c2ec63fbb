package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Start and End are offsets from the recorder's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps the spans of one run in memory. The benchmark calls
// the program from a single goroutine, so the open spans form a stack
// and the innermost open span is the parent of the next one. A
// disabled recorder records nothing.
type recorder struct {
	on    bool
	runID string
	t0    time.Time
	spans []span
	open  []int // indices into spans
}

func newRecorder(on bool, runID string) *recorder {
	return &recorder{on: on, runID: runID, t0: time.Now()}
}

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(name string) func() {
	if !r.on {
		return func() {}
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{ID: idx + 1, Parent: parent, Name: name, Start: time.Since(r.t0)})
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].End = time.Since(r.t0)
		r.open = r.open[:len(r.open)-1]
	}
}

// write stores the run's spans as JSON at path.
func (r *recorder) write(path string, meta map[string]any) error {
	doc := map[string]any{"run_id": r.runID, "spans": r.spans}
	for k, v := range meta {
		doc[k] = v
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfSeconds returns, per span name, the summed self time of every
// span with that name: its duration minus the part of its interval
// covered by its child spans (overlapping children count once).
func selfSeconds(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] += self.Seconds()
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}
