package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (-1 for a root); spans of one iteration share
// Iteration (-1 for setup-phase spans).
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	StartUS   int64  `json:"start_us"`
	EndUS     int64  `json:"end_us"`
	Parent    int    `json:"parent"`
	Iteration int    `json:"iteration"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndUS-s.StartUS) * time.Microsecond }

// tracer keeps spans in memory until the pass ends. A nil *tracer is the
// untraced pass: begin/end are no-ops, so the iteration code is the same
// in both passes and the traced pass differs only by the recording.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// noSpan is what begin returns on a nil tracer and what roots pass as
// their parent.
const noSpan = -1

func (t *tracer) begin(name string, parent, iteration int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartUS: now, EndUS: now, Parent: parent, Iteration: iteration})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id].EndUS = now
	t.mu.Unlock()
}

// rename relabels an open span once its outcome is known (an HTTP attempt
// that turned out to be a throttled retry).
func (t *tracer) rename(id int, name string) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsOf returns the duration in ms of every span with the name.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimeUS is a span's duration minus the part of its interval its
// direct children cover. Children may overlap one another (two callers,
// or a child that outlives a sibling's start), so coverage is the union
// of the child intervals clipped to the parent, not their sum.
func selfTimeUS(spans []span, id int) int64 {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.StartUS, p.StartUS), min(s.EndUS, p.EndUS)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered, edge := int64(0), p.StartUS
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		covered += k.hi - max(k.lo, edge)
		edge = k.hi
	}
	return (p.EndUS - p.StartUS) - covered
}

// selfRatio is the summed self time of every span named name over their
// summed duration: the share of the iteration the harness itself (loop
// bookkeeping, span recording) accounts for rather than a layer.
func selfRatio(spans []span, name string) float64 {
	var self, total int64
	for _, s := range spans {
		if s.Name == name {
			self += selfTimeUS(spans, s.ID)
			total += s.EndUS - s.StartUS
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
