package trace

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// canned builds a fixed, fully deterministic trace: a Figure-5-shaped
// statement with phases, a nested operator chain and storage
// attribution, all at canned times. Shared by the render and Chrome
// golden tests.
func canned(t *testing.T, tracer *Tracer) *Trace {
	t.Helper()
	a := tracer.Sample()
	if a == nil {
		t.Fatal("sampling off")
	}
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	root := a.StartSpanAt(KindStatement, "statement", t0)
	a.AddSpan(root, KindPhase, "parse", t0, 80*time.Microsecond)
	a.AddSpan(root, KindPhase, "check", t0.Add(80*time.Microsecond), 40*time.Microsecond)
	a.AddSpan(root, KindPhase, "plan", t0.Add(120*time.Microsecond), 60*time.Microsecond)
	exec := a.StartSpanAt(KindPhase, "execute", t0.Add(180*time.Microsecond))
	scan := a.AddSpan(exec, KindOperator, "scan Employees binding E", t0.Add(180*time.Microsecond), 900*time.Microsecond)
	a.AttrInt(scan, "loops", 1)
	a.AttrInt(scan, "rows_in", 4)
	a.AttrInt(scan, "rows_out", 3)
	pool := a.AddSpan(exec, KindStorage, "buffer pool", t0.Add(180*time.Microsecond), 0)
	a.AttrInt(pool, "hits", 7)
	a.AttrInt(pool, "misses", 1)
	derefs := a.AddSpan(exec, KindStorage, "derefs", t0.Add(180*time.Microsecond), 0)
	a.AttrInt(derefs, "count", 4)
	a.spans[exec].Dur = time.Millisecond
	a.EndSpan(exec)

	st := &StmtTrace{act: a, Rows: 3}
	return st.Finish(`retrieve (E.name, E.salary) from E in Employees where E.dept.floor = 2`,
		1, "", "retrieve", 1200*time.Microsecond, nil)
}

func TestSamplingDisabledIsNil(t *testing.T) {
	tr := NewTracer(0, 4)
	if a := tr.Sample(); a != nil {
		t.Fatal("every=0 sampled a statement")
	}
	var nilTracer *Tracer
	if a := nilTracer.Sample(); a != nil {
		t.Fatal("nil tracer sampled a statement")
	}
}

func TestSamplingOneInN(t *testing.T) {
	tr := NewTracer(4, 16)
	n := 0
	for i := 0; i < 40; i++ {
		if a := tr.Sample(); a != nil {
			n++
			// Keep the leak invariant: every sampled trace finishes.
			st := &StmtTrace{act: a}
			a.StartSpanAt(KindStatement, "statement", time.Now())
			st.Finish("q", 0, "", "retrieve", time.Microsecond, nil)
		}
	}
	if n != 10 {
		t.Errorf("1-in-4 sampling took %d of 40", n)
	}
	s := tr.Stats()
	if s.SpansStarted != s.SpansFinished {
		t.Errorf("span leak: started %d finished %d", s.SpansStarted, s.SpansFinished)
	}
}

// TestNilActiveSafe walks every Active method through a nil receiver —
// the unsampled statement's path.
func TestNilActiveSafe(t *testing.T) {
	var a *Active
	if a.ID() != 0 {
		t.Error("nil ID")
	}
	idx := a.StartSpan(KindOperator, "x")
	if idx != -1 {
		t.Errorf("nil StartSpan = %d", idx)
	}
	a.EndSpan(idx)
	a.Attr(idx, "k", "v")
	a.AttrInt(idx, "k", 1)
	if a.AddSpan(-1, KindStorage, "x", time.Now(), 0) != -1 {
		t.Error("nil AddSpan")
	}
	var st *StmtTrace
	if st.Sampled() || st.TraceID() != 0 || st.Dur(PhaseParse) != 0 {
		t.Error("nil StmtTrace not inert")
	}
	st.RecordPhase(PhaseParse, time.Now(), time.Microsecond)
	pt := st.StartPhase(PhaseExecute)
	st.EndPhase(pt)
	if st.Finish("q", 0, "", "retrieve", 0, nil) != nil {
		t.Error("nil Finish returned a trace")
	}
}

// TestZeroAllocWhenDisabled pins the overhead contract: with tracing
// off and the statement under the slow threshold, the per-statement
// trace primitives allocate nothing.
func TestZeroAllocWhenDisabled(t *testing.T) {
	tracer := NewTracer(0, 4)
	tracer.SetSlowThreshold(time.Hour)
	allocs := testing.AllocsPerRun(100, func() {
		var st StmtTrace
		st.Begin(tracer, time.Now())
		st.RecordPhase(PhaseParse, time.Now(), time.Microsecond)
		pt := st.StartPhase(PhaseExecute)
		st.Active().AddSpan(-1, KindStorage, "buffer pool", time.Now(), 0)
		st.EndPhase(pt)
		st.Rows = 3
		st.Finish("q", 1, "", "retrieve", time.Microsecond, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.0f per statement, want 0", allocs)
	}
}

// TestSlowUnsampledRetained pins the retention rule's second case: an
// unsampled statement that succeeds at or over the threshold is kept as
// its root plus one span per non-zero phase, laid end to end from its
// start, and marked Slow; a failed one, or one under the threshold, is
// not kept.
func TestSlowUnsampledRetained(t *testing.T) {
	tracer := NewTracer(0, 4)
	tracer.SetSlowThreshold(time.Millisecond)
	finish := func(total time.Duration, err error) *Trace {
		var st StmtTrace
		t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
		st.Begin(tracer, t0)
		st.RecordPhase(PhaseParse, t0, 2*time.Millisecond)
		st.Durs[PhaseExecute] = 3 * time.Millisecond
		st.Rows = 7
		return st.Finish("q", 5, "u", "retrieve", total, err)
	}
	if finish(500*time.Microsecond, nil) != nil || finish(6*time.Millisecond, errTest) != nil {
		t.Fatal("a fast or failed unsampled statement was retained")
	}
	tr := finish(6*time.Millisecond, nil)
	if tr == nil || !tr.Slow || tr.ID == 0 || tr.Rows != 7 || tr.Src != "q" {
		t.Fatalf("slow statement retained as %+v", tr)
	}
	if len(tr.Spans) != 3 || tr.Spans[1].Name != "parse" || tr.Spans[2].Name != "execute" ||
		!tr.Spans[2].Start.Equal(tr.Spans[1].Start.Add(2*time.Millisecond)) {
		t.Fatalf("phase spans not laid end to end: %+v", tr.Spans)
	}
	if d := tr.PhaseDurs(); d[PhaseParse] != 2*time.Millisecond || d[PhaseExecute] != 3*time.Millisecond {
		t.Errorf("PhaseDurs = %v", d)
	}
	tracer.SetSlowThreshold(0)
	if !tracer.Last().Slow {
		t.Error("a threshold change rewrote a retained trace's mark")
	}
	s := tracer.Stats()
	if s.TracesStarted != 1 || s.TracesStarted != s.TracesFinished || s.SpansStarted != s.SpansFinished {
		t.Errorf("lifecycle counters unbalanced: %+v", s)
	}
}

func TestPhaseAccumulation(t *testing.T) {
	var st StmtTrace
	st.RecordPhase(PhaseParse, time.Now(), 5*time.Microsecond)
	st.RecordPhase(PhaseParse, time.Now(), 7*time.Microsecond)
	if got := st.Dur(PhaseParse); got != 12*time.Microsecond {
		t.Errorf("parse accumulated %v", got)
	}
	pt := st.StartPhase(PhaseCheck)
	time.Sleep(time.Millisecond)
	st.EndPhase(pt)
	if st.Dur(PhaseCheck) < time.Millisecond {
		t.Errorf("check did not accumulate: %v", st.Dur(PhaseCheck))
	}
}

// TestFinishClosesOpenSpans covers the error-unwind path: a statement
// failing mid-phase leaves spans open, Finish must close them all.
func TestFinishClosesOpenSpans(t *testing.T) {
	tracer := NewTracer(1, 4)
	var st StmtTrace
	start := time.Now()
	st.Begin(tracer, start)
	st.Active().StartSpan(KindPhase, "execute")
	st.Active().StartSpan(KindOperator, "scan")
	tr := st.Finish("q", 2, "", "retrieve", 3*time.Millisecond, nil)
	if tr == nil {
		t.Fatal("no trace")
	}
	for i, sp := range tr.Spans {
		if sp.Dur < 0 {
			t.Errorf("span %d (%s) negative duration %v", i, sp.Name, sp.Dur)
		}
	}
	s := tracer.Stats()
	if s.SpansStarted != s.SpansFinished {
		t.Errorf("span leak after unwind: %+v", s)
	}
	if st.Sampled() {
		t.Error("StmtTrace still sampled after Finish")
	}
}

func TestRingEvictionAndLookup(t *testing.T) {
	tracer := NewTracer(1, 3)
	var ids []uint64
	for i := 0; i < 5; i++ {
		var st StmtTrace
		st.Begin(tracer, time.Now())
		ids = append(ids, st.TraceID())
		st.Finish("q", int64(i), "", "retrieve", time.Microsecond, nil)
	}
	got := tracer.Traces()
	if len(got) != 3 {
		t.Fatalf("ring kept %d, want 3", len(got))
	}
	// Oldest first: traces 3, 4, 5 survive.
	for i, tr := range got {
		if tr.ID != ids[i+2] {
			t.Errorf("ring[%d] = trace %d, want %d", i, tr.ID, ids[i+2])
		}
	}
	if last := tracer.Last(); last == nil || last.ID != ids[4] {
		t.Errorf("Last() = %v", last)
	}
	if tracer.Get(ids[0]) != nil {
		t.Error("evicted trace still resolvable")
	}
	if tr := tracer.Get(ids[3]); tr == nil || tr.ID != ids[3] {
		t.Errorf("Get(%d) = %v", ids[3], tr)
	}
}

// TestConcurrentLifecycle hammers the tracer from many goroutines (run
// under -race in CI): mixed sampled/unsampled statements, ring churn,
// concurrent reads, and the no-leak invariant at the end.
func TestConcurrentLifecycle(t *testing.T) {
	tracer := NewTracer(2, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var st StmtTrace
				st.Begin(tracer, time.Now())
				pt := st.StartPhase(PhaseExecute)
				op := st.Active().StartSpan(KindOperator, "scan")
				st.Active().AttrInt(op, "rows_out", int64(i))
				st.Active().EndSpan(op)
				st.EndPhase(pt)
				st.Finish("q", int64(g), "", "retrieve", time.Microsecond, nil)
				if i%17 == 0 {
					tracer.Last()
					tracer.Traces()
					tracer.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s := tracer.Stats()
	if s.SpansStarted != s.SpansFinished {
		t.Errorf("span leak under concurrency: %+v", s)
	}
	if s.TracesStarted != s.TracesFinished {
		t.Errorf("trace leak under concurrency: %+v", s)
	}
	if s.TracesStarted != 800 {
		t.Errorf("1-in-2 sampling of 1600 statements started %d traces", s.TracesStarted)
	}
	if s.Retained != 8 {
		t.Errorf("ring retained %d, want 8", s.Retained)
	}
}

func TestRenderTree(t *testing.T) {
	tracer := NewTracer(1, 4)
	tr := canned(t, tracer)
	out := Render(tr)
	for _, want := range []string{
		"trace 1 [retrieve] session=1 rows=3",
		"● statement",
		"◐ parse (dur=80µs)",
		"◐ execute (dur=1ms)",
		"▸ scan Employees binding E (dur=900µs) loops=1 rows_in=4 rows_out=3",
		"· buffer pool (dur=0s) hits=7 misses=1",
		"· derefs (dur=0s) count=4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Indentation: operators sit under the execute phase, which sits
	// under the statement.
	if !strings.Contains(out, "\n      ▸ scan") {
		t.Errorf("operator not nested under phase:\n%s", out)
	}
	if Render(nil) != "no trace\n" {
		t.Error("nil render")
	}
}

// errTest is a statement error for the retention tests.
var errTest = errors.New("test failure")
