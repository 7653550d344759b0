package main

// In-memory spans for the traced replay. Spans are recorded by the
// benchmark around its own calls into each layer's public functions;
// nothing inside the program is instrumented.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Parent 0 marks a root (one per operation).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A disabled tracer runs the same calls
// without timing them, which is the baseline of the overhead figure.
type tracer struct {
	on    bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// run times fn as a span named name under parent and returns its id
// (0 when tracing is off).
func (t *tracer) run(parent int, name string, fn func(id int)) int {
	if !t.on {
		fn(0)
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent})
	t.mu.Unlock()
	start := time.Since(t.base).Nanoseconds()
	fn(id)
	end := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start, end
	t.mu.Unlock()
	return id
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStats aggregates one span name.
type spanStats struct {
	durs []float64 // ms
	self float64   // total self time, ms
}

// traceReport is the per-name and per-root aggregation of a trace.
type traceReport struct {
	byName map[string]*spanStats
	// rootMS is the total duration of root spans per root name, ms.
	rootMS map[string]float64
	// split is, per root name, the time spent in each direct child call
	// (whole, including its own children) and, under "", the root's self
	// time: together they add up to rootMS.
	split map[string]map[string]float64
}

// analyze computes durations and self times: a span's self time is its
// duration minus the part of its interval its children cover (children
// may run concurrently, so their intervals are unioned first).
func (t *tracer) analyze() *traceReport {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rep := &traceReport{byName: map[string]*spanStats{}, rootMS: map[string]float64{}, split: map[string]map[string]float64{}}
	for _, s := range t.spans {
		dur := float64(s.End-s.Start) / 1e6
		self := dur - float64(covered(kids[s.ID]))/1e6
		st := rep.byName[s.Name]
		if st == nil {
			st = &spanStats{}
			rep.byName[s.Name] = st
		}
		st.durs = append(st.durs, dur)
		st.self += self
		switch {
		case s.Parent == 0:
			rep.rootMS[s.Name] += dur
			rep.splitOf(s.Name)[""] += self
		case t.spans[s.Parent-1].Parent == 0:
			rep.splitOf(t.spans[s.Parent-1].Name)[s.Name] += dur
		}
	}
	return rep
}

func (r *traceReport) splitOf(root string) map[string]float64 {
	if r.split[root] == nil {
		r.split[root] = map[string]float64{}
	}
	return r.split[root]
}

// covered is the length of the union of the spans' intervals, in ns.
func covered(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total int64
	curS, curE := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
			continue
		}
		if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}

// p50 is the median duration of a span name in ms (0 when absent).
func (r *traceReport) p50(name string) float64 {
	if st := r.byName[name]; st != nil {
		return median(st.durs)
	}
	return 0
}
