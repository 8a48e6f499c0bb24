// Package trace is the engine's per-statement observability substrate:
// hierarchical spans (statement → phase → operator → storage event) with
// attributes, head-based sampling, and a fixed-size ring of completed
// statement traces, the sampled ones and the slow ones. Where package
// metrics answers "how is the engine doing in aggregate", a trace
// answers "what did this one statement do, in order, and where did its
// time go".
//
// The overhead contract is the point of the design: when a statement is
// not sampled, the whole apparatus collapses to two atomic loads (the
// sampling decision and, at the end, the slow threshold) and
// nil-receiver no-ops — zero allocations, no locks, nothing on the
// per-row hot path. An unsampled statement over the slow threshold is
// retained anyway, as its root span and one span per phase, so the slow
// log is a view over the ring rather than a second store. Storage spans
// are two: commit.freeze, a write's snapshot publication, and derefs,
// the objects a retrieve fetched by oid.
//
// A statement executes on one goroutine, so an Active trace needs no
// internal locking; only the Tracer's completed-trace ring takes a
// mutex, once per retained statement.
package trace

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span by the layer that produced it.
type Kind uint8

const (
	// KindStatement is the root span: one whole Exec/Query call.
	KindStatement Kind = iota
	// KindPhase is one statement phase: parse, check, plan, compile,
	// execute.
	KindPhase
	// KindOperator is one plan operator (scan, index probe, hash build,
	// unnest) or update action.
	KindOperator
	// KindStorage is a storage-layer event: a write's snapshot
	// publication (commit.freeze) or a retrieve's object fetches by oid
	// (derefs).
	KindStorage
)

// String names the kind for rendering and the Chrome exporter's
// category field.
func (k Kind) String() string {
	switch k {
	case KindStatement:
		return "statement"
	case KindPhase:
		return "phase"
	case KindOperator:
		return "operator"
	case KindStorage:
		return "storage"
	}
	return "unknown"
}

// Attr is one key=value annotation on a span. Values are pre-rendered
// strings: formatting happens only on sampled statements.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one node of a trace tree. Parent is the index of the parent
// span within the trace's Spans slice (-1 for the root), so a completed
// trace is self-contained and immutable.
type Span struct {
	Parent int           `json:"parent"`
	Kind   Kind          `json:"kind"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Phase indexes the per-statement phase accumulator.
type Phase uint8

const (
	PhaseParse Phase = iota
	PhaseCheck
	PhasePlan
	PhaseCompile
	PhaseExecute
	numPhases
)

// phaseNames must stay in sync with the Phase constants.
var phaseNames = [numPhases]string{"parse", "check", "plan", "compile", "execute"}

// Name returns the phase's span name.
func (p Phase) Name() string { return phaseNames[p] }

// Tracer owns the sampling policy, the slow threshold and the ring of
// completed traces. One Tracer serves a database; it is safe for
// concurrent use. The zero value is not usable; call NewTracer.
type Tracer struct {
	// every is the head-sampling rate: 0 disables tracing, 1 samples
	// every statement, N samples one statement in N. An atomic so the
	// shell and the ops plane can flip it while statements run.
	every atomic.Int64
	// slow is the slow threshold in nanoseconds (0 = none): a statement
	// that succeeds in at least this long is retained and marked Slow,
	// sampled or not.
	slow atomic.Int64
	seq  atomic.Uint64 // statements seen (sampling wheel)
	ids  atomic.Uint64 // trace id allocator

	// Lifecycle accounting for the leak tests: every span started must
	// be finished by the time its statement completes.
	spansStarted   atomic.Uint64
	spansFinished  atomic.Uint64
	tracesStarted  atomic.Uint64
	tracesFinished atomic.Uint64

	// The completed-trace ring, guarded by its own mutex: retained
	// statements finishing concurrently contend only here, once per
	// statement.
	mu   sync.Mutex // extra:lock tracer.mu
	ring []*Trace
	next int
	cap  int
}

// NewTracer returns a tracer sampling one statement in every (0 = off)
// with a completed-trace ring of capacity entries.
func NewTracer(every, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{cap: capacity}
	t.every.Store(int64(every))
	return t
}

// SetEvery adjusts the sampling rate at run time: 0 disables tracing,
// 1 traces every statement, N traces one in N.
func (t *Tracer) SetEvery(n int) { t.every.Store(int64(n)) }

// Every returns the current sampling rate.
func (t *Tracer) Every() int { return int(t.every.Load()) }

// SetSlowThreshold sets the duration at or over which a successful
// statement is retained and marked Slow; 0 retains none for slowness.
// Traces already retained keep the mark they finished with.
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slow.Store(int64(d)) }

// isSlow reports whether a statement that succeeded in total is slow.
func (t *Tracer) isSlow(total time.Duration) bool {
	if t == nil {
		return false
	}
	th := t.slow.Load()
	return th > 0 && int64(total) >= th
}

// Sample makes the head-based sampling decision for one statement:
// nil when tracing is off or the statement lost the draw — the caller
// then pays nothing further. The decision is made once, at statement
// start, so a statement is either fully traced or fully free.
func (t *Tracer) Sample() *Active {
	if t == nil {
		return nil
	}
	every := t.every.Load()
	if every <= 0 {
		return nil
	}
	if every > 1 && t.seq.Add(1)%uint64(every) != 0 {
		return nil
	}
	return t.begin()
}

// begin starts a trace with a fresh id.
func (t *Tracer) begin() *Active {
	t.tracesStarted.Add(1)
	return &Active{
		tracer: t,
		id:     t.ids.Add(1),
		spans:  make([]Span, 0, 16),
		open:   make([]int, 0, 4),
	}
}

// Record retains a completed trace in the ring, evicting the oldest.
//
// extra:acquires tracer.mu.W
func (t *Tracer) Record(tr *Trace) {
	t.tracesFinished.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, tr)
		t.next = len(t.ring) % t.cap
		return
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % t.cap
}

// Last returns the most recently completed trace, or nil.
//
// extra:acquires tracer.mu.W
func (t *Tracer) Last() *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 {
		return nil
	}
	i := t.next - 1
	if i < 0 {
		i = len(t.ring) - 1
	}
	return t.ring[i]
}

// Get returns the retained trace with the given id, or nil when it has
// aged out of the ring (or never existed).
//
// extra:acquires tracer.mu.W
func (t *Tracer) Get(id uint64) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.ring {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// Traces returns the retained traces, oldest first.
//
// extra:acquires tracer.mu.W
func (t *Tracer) Traces() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.ring))
	if len(t.ring) == t.cap {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
		return out
	}
	return append(out, t.ring...)
}

// Stats is the tracer's lifecycle accounting: the leak invariant is
// SpansStarted == SpansFinished and TracesStarted == TracesFinished
// whenever no statement is mid-flight.
type Stats struct {
	SpansStarted   uint64 `json:"spans_started"`
	SpansFinished  uint64 `json:"spans_finished"`
	TracesStarted  uint64 `json:"traces_started"`
	TracesFinished uint64 `json:"traces_finished"`
	Every          int    `json:"sample_every"`
	Retained       int    `json:"retained"`
}

// Stats returns a consistent-enough snapshot of the counters (each is a
// single atomic load).
//
// extra:acquires tracer.mu.W
func (t *Tracer) Stats() Stats {
	t.mu.Lock()
	n := len(t.ring)
	t.mu.Unlock()
	return Stats{
		SpansStarted:   t.spansStarted.Load(),
		SpansFinished:  t.spansFinished.Load(),
		TracesStarted:  t.tracesStarted.Load(),
		TracesFinished: t.tracesFinished.Load(),
		Every:          int(t.every.Load()),
		Retained:       n,
	}
}

// Active is the span builder of one sampled statement. It is used from
// the single goroutine executing the statement, so it needs no lock.
// All methods are nil-receiver safe: an unsampled statement carries a
// nil *Active through the same call sites at the cost of one branch.
type Active struct {
	tracer *Tracer
	id     uint64
	spans  []Span
	open   []int // stack of open span indices; top is the current parent
}

// ID returns the trace id (0 for a nil Active).
func (a *Active) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.id
}

// StartSpan opens a span now, as a child of the innermost open span.
// It returns the span's index for EndSpan/Attr; -1 on a nil receiver.
func (a *Active) StartSpan(k Kind, name string) int {
	if a == nil {
		return -1
	}
	return a.StartSpanAt(k, name, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time (the statement
// root starts at the moment the source arrived, before sampling ran).
func (a *Active) StartSpanAt(k Kind, name string, start time.Time) int {
	if a == nil {
		return -1
	}
	parent := -1
	if len(a.open) > 0 {
		parent = a.open[len(a.open)-1]
	}
	a.spans = append(a.spans, Span{Parent: parent, Kind: k, Name: name, Start: start})
	idx := len(a.spans) - 1
	a.open = append(a.open, idx)
	a.tracer.spansStarted.Add(1)
	return idx
}

// EndSpan closes the span, fixing its duration.
func (a *Active) EndSpan(idx int) {
	if a == nil || idx < 0 || idx >= len(a.spans) {
		return
	}
	sp := &a.spans[idx]
	if sp.Dur == 0 {
		sp.Dur = time.Since(sp.Start)
	}
	for i := len(a.open) - 1; i >= 0; i-- {
		if a.open[i] == idx {
			a.open = append(a.open[:i], a.open[i+1:]...)
			a.tracer.spansFinished.Add(1)
			return
		}
	}
}

// AddSpan records an already-elapsed span retroactively (parse runs
// before the sampling decision; operator actuals are converted to spans
// after the plan finishes). parent is a span index from this trace, or
// -1 to attach under the innermost open span. It returns the new span's
// index.
func (a *Active) AddSpan(parent int, k Kind, name string, start time.Time, dur time.Duration) int {
	if a == nil {
		return -1
	}
	if parent < 0 && len(a.open) > 0 {
		parent = a.open[len(a.open)-1]
	}
	a.spans = append(a.spans, Span{Parent: parent, Kind: k, Name: name, Start: start, Dur: dur})
	a.tracer.spansStarted.Add(1)
	a.tracer.spansFinished.Add(1)
	return len(a.spans) - 1
}

// Attr annotates a span with a string value.
func (a *Active) Attr(idx int, key, val string) {
	if a == nil || idx < 0 || idx >= len(a.spans) {
		return
	}
	a.spans[idx].Attrs = append(a.spans[idx].Attrs, Attr{Key: key, Val: val})
}

// AttrInt annotates a span with an integer value.
func (a *Active) AttrInt(idx int, key string, v int64) {
	a.Attr(idx, key, strconv.FormatInt(v, 10))
}

// Trace is one completed, immutable statement trace. Spans[0] is the
// statement root; children always follow their parent in the slice, so
// slice order is a valid pre-order rendering order. Slow records that
// the statement succeeded at or over the slow threshold in force when
// it finished; a trace retained only for that carries the root and its
// phase spans.
type Trace struct {
	ID      uint64        `json:"id"`
	Src     string        `json:"src"`
	Session int64         `json:"session"`
	User    string        `json:"user"`
	Kind    string        `json:"kind"`
	Rows    int           `json:"rows"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Slow    bool          `json:"slow,omitempty"`
	Spans   []Span        `json:"spans"`
}

// PhaseDurs sums the trace's phase spans by phase.
func (tr *Trace) PhaseDurs() [numPhases]time.Duration {
	var d [numPhases]time.Duration
	for _, sp := range tr.Spans {
		if sp.Kind != KindPhase {
			continue
		}
		for p, name := range phaseNames {
			if sp.Name == name {
				d[p] += sp.Dur
			}
		}
	}
	return d
}

// StmtTrace is the always-on per-statement accumulator the database
// layer threads through statement execution: phase durations and the
// result row count feed the metrics histograms for every statement,
// and — only when the statement was sampled — the embedded Active
// collects the span tree. The zero value is ready to use and the
// unsampled path performs no allocation.
type StmtTrace struct {
	Durs   [numPhases]time.Duration
	Rows   int
	act    *Active
	tracer *Tracer   // set by Begin: judges slowness at Finish
	start  time.Time // set by Begin: where a phase-only trace starts
}

// Begin makes the sampling decision and, when sampled, opens the
// statement root span at start.
func (st *StmtTrace) Begin(t *Tracer, start time.Time) {
	st.tracer, st.start = t, start
	if a := t.Sample(); a != nil {
		st.act = a
		// The root span deliberately stays open for the whole statement;
		// Finish closes every span still open when it seals the trace.
		a.StartSpanAt(KindStatement, "statement", start) //extravet:ignore spanleak (root span is closed by Finish)
	}
}

// Active returns the span builder (nil when the statement was not
// sampled). The executor carries it to annotate operator-level work.
func (st *StmtTrace) Active() *Active {
	if st == nil {
		return nil
	}
	return st.act
}

// Sampled reports whether this statement is being traced.
func (st *StmtTrace) Sampled() bool { return st != nil && st.act != nil }

// TraceID returns the sampled trace's id, or 0.
func (st *StmtTrace) TraceID() uint64 { return st.Active().ID() }

// Dur returns the accumulated duration of one phase.
func (st *StmtTrace) Dur(p Phase) time.Duration {
	if st == nil {
		return 0
	}
	return st.Durs[p]
}

// RecordPhase adds an already-measured phase duration (parse happens
// before Begin) and retro-records its span when sampled.
func (st *StmtTrace) RecordPhase(p Phase, start time.Time, d time.Duration) {
	if st == nil {
		return
	}
	st.Durs[p] += d
	if st.act != nil {
		st.act.AddSpan(-1, KindPhase, phaseNames[p], start, d)
	}
}

// PhaseTimer times one phase interval; obtained from StartPhase,
// finished with EndPhase. It is a plain value and deliberately does NOT
// hold the *StmtTrace — embedding the pointer would make every
// statement's stack-allocated StmtTrace escape to the heap, breaking
// the zero-allocation contract for unsampled statements.
type PhaseTimer struct {
	p    Phase
	t0   time.Time
	span int
}

// StartPhase begins timing a phase, opening its span when sampled.
// Safe on a nil receiver (procedure body statements run untimed).
func (st *StmtTrace) StartPhase(p Phase) PhaseTimer {
	if st == nil {
		return PhaseTimer{span: -1, t0: time.Now()}
	}
	pt := PhaseTimer{p: p, t0: time.Now(), span: -1}
	if st.act != nil {
		pt.span = st.act.StartSpanAt(KindPhase, phaseNames[p], pt.t0)
	}
	return pt
}

// EndPhase stops the timer, accumulating into the phase total and
// closing the span when one was opened.
func (st *StmtTrace) EndPhase(pt PhaseTimer) {
	if st == nil {
		return
	}
	st.Durs[pt.p] += time.Since(pt.t0)
	if pt.span >= 0 {
		st.act.EndSpan(pt.span)
	}
}

// Span returns the phase's span index (-1 when unsampled), for
// attaching operator spans under the execute phase.
func (pt PhaseTimer) Span() int { return pt.span }

// Start returns the phase's start time.
func (pt PhaseTimer) Start() time.Time { return pt.t0 }

// Finish seals a statement that ended with err after total into an
// immutable Trace and records it in the tracer's ring, returning it. A
// statement is retained when it was sampled, or when it succeeded at
// or over the slow threshold; otherwise Finish returns nil having
// touched nothing shared. An unsampled slow statement is retained as
// its root span plus one span per non-zero phase, laid end to end from
// its start. A sampled statement's error annotates its root. Any spans
// still open — an error unwound the statement mid-phase — are closed
// with the statement's end time so the leak invariant holds.
func (st *StmtTrace) Finish(src string, session int64, user, kind string, total time.Duration, err error) *Trace {
	if st == nil {
		return nil
	}
	a := st.act
	slow := err == nil && st.tracer.isSlow(total)
	if a == nil {
		if !slow {
			return nil
		}
		a = st.tracer.begin()
		a.AddSpan(-1, KindStatement, "statement", st.start, total)
		at := st.start
		for p, d := range st.Durs {
			if d > 0 {
				a.AddSpan(0, KindPhase, phaseNames[p], at, d)
				at = at.Add(d)
			}
		}
	}
	if err != nil {
		a.Attr(0, "error", err.Error())
	}
	root := &a.spans[0]
	root.Dur = total
	end := root.Start.Add(total)
	for len(a.open) > 0 {
		idx := a.open[len(a.open)-1]
		sp := &a.spans[idx]
		sp.Dur = end.Sub(sp.Start)
		a.open = a.open[:len(a.open)-1]
		a.tracer.spansFinished.Add(1)
	}
	a.Attr(0, "session", strconv.FormatInt(session, 10))
	a.Attr(0, "user", user)
	a.Attr(0, "kind", kind)
	a.AttrInt(0, "rows", int64(st.Rows))
	tr := &Trace{
		ID:      a.id,
		Src:     src,
		Session: session,
		User:    user,
		Kind:    kind,
		Rows:    st.Rows,
		Start:   root.Start,
		Dur:     total,
		Slow:    slow,
		Spans:   a.spans,
	}
	a.tracer.Record(tr)
	st.act = nil
	return tr
}
