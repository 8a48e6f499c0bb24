package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public functions. Start and End are offsets from the
// tracer's origin; Parent indexes the enclosing span (-1 for a root);
// spans of one statement share Stmt.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Stmt       int
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of spans begun and not yet ended
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, stmt int) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Stmt: stmt, Start: time.Since(t.origin)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.open) - 1
	t.spans[t.open[n]].End = time.Since(t.origin)
	t.open = t.open[:n]
}

// selfTimes returns, per span, its duration minus the part of it that
// its child spans cover. Children of one span do not overlap each other
// here (one goroutine records them), so the covered part is the sum of
// the children's durations clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// stageTotals gives, per span name, how many spans there were and their
// typical total self time: within each group of statements (group maps a
// statement id to, say, its kind) the median self time times the count,
// summed over groups. A sum of raw self times would let one garbage
// collection pause inside one span outweigh a hundred µs-scale
// statements; the median of a group does not move for it.
func stageTotals(spans []span, group func(stmt int) int) (total map[string]time.Duration, count map[string]int) {
	type key struct {
		name  string
		group int
	}
	by := map[key][]float64{}
	self := selfTimes(spans)
	for i, s := range spans {
		k := key{s.Name, group(s.Stmt)}
		by[k] = append(by[k], float64(self[i]))
	}
	total, count = map[string]time.Duration{}, map[string]int{}
	for k, vals := range by {
		total[k.name] += time.Duration(median(vals) * float64(len(vals)))
		count[k.name] += len(vals)
	}
	return total, count
}

// spanCost measures what recording one span costs, by recording many
// empty ones: the tracing overhead is this times the spans recorded.
func spanCost() time.Duration {
	const n = 200000
	t := newTracer(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin("x", i)
		t.end()
	}
	return time.Since(start) / n
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto. extra carries run-level figures into the file's metadata.
func writeChrome(path string, spans []span, extra map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"stmt_id": s.Stmt, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns", "otherData": extra})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
