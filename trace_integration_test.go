package extra

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// traceDurRE normalizes the duration fields of rendered span trees,
// matching the golden discipline of the ExplainAnalyze tests.
var traceDurRE = regexp.MustCompile(`dur=[^ )\n]+`)

func normalizeTrace(s string) string {
	return traceDurRE.ReplaceAllString(s, "dur=?")
}

// TestTraceFigure5Golden pins the span tree of the paper's Figure 5
// implicit join under always-on sampling: statement root, the four
// phases, the operator pipeline synthesized from the plan's actuals,
// and the storage span with object-fetch attribution. Durations
// are normalized; structure, names, and attribute counts are exact.
func TestTraceFigure5Golden(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.SetTraceSampling(1)
	db.MustQuery(`retrieve (E.name, E.salary) from E in Employees where E.dept.floor = 2`)
	tr := db.LastTrace()
	if tr == nil {
		t.Fatal("no trace retained with sampling on")
	}
	out := trace.Render(tr)
	for _, want := range []string{
		"◐ parse", "◐ check", "◐ plan", "◐ execute",
		"▸ scan Employees binding E", "rows_in=4 rows_out=3",
		"· derefs",
		"session=0", "rows=3", "kind=retrieve",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("span tree missing %q:\n%s", want, out)
		}
	}
	// The id increments per sampled statement; pin it to 1 so the golden
	// is stable (fresh DB, first sampled statement).
	checkGolden(t, "trace_fig5.golden", normalizeTrace(out))

	// The same statement exports as valid Chrome trace_event JSON with
	// one event per span.
	chrome, err := trace.ChromeJSON(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome, `"traceEvents"`) || !strings.Contains(chrome, `"ph": "X"`) {
		t.Errorf("chrome export malformed:\n%s", chrome)
	}
}

// TestTraceHashJoinSpans checks that an explicit hash join contributes
// a live "hash build" operator span and probe attribution on the outer
// node's span.
func TestTraceHashJoinSpans(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.SetTraceSampling(1)
	db.MustQuery(`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D`)
	tr := db.LastTrace()
	if tr == nil {
		t.Fatal("no trace")
	}
	out := trace.Render(tr)
	if !strings.Contains(out, "▸ hash build Departments binding D") {
		t.Errorf("no hash build span:\n%s", out)
	}
	if !strings.Contains(out, "hash_probes=4") || !strings.Contains(out, "build_rows=3") {
		t.Errorf("hash attribution missing:\n%s", out)
	}
}

// TestTraceUpdateSpans checks update statements carry operator spans
// with row counts.
func TestTraceUpdateSpans(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.SetTraceSampling(1)
	db.MustExec(`delete E from E in Employees where E.salary < 60`)
	out := trace.Render(db.LastTrace())
	if !strings.Contains(out, "▸ delete") || !strings.Contains(out, "rows=2") {
		t.Errorf("delete span missing or wrong rows:\n%s", out)
	}
	// Publication is part of the statement: the freeze has its own span.
	if !strings.Contains(out, "commit.freeze") {
		t.Errorf("no commit.freeze span under the write statement:\n%s", out)
	}
}

// TestTraceSampling covers run-time sampling control: off by default,
// 1-in-N, and the slow-query link carrying the sampled trace id. With
// sampling off a slow statement is still retained; with the threshold
// at 0 as well, nothing is.
func TestTraceSampling(t *testing.T) {
	db, err := Open(WithSlowQueryLog(time.Nanosecond), WithTracing(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`define type P: ( a: int4 ) create Ps : { own P } append to Ps (a = 1)`)
	db.MustQuery(`retrieve (P.a) from P in Ps`)
	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow entries")
	}
	last := slow[len(slow)-1]
	if last.TraceID == 0 {
		t.Fatalf("slow entry not linked to a trace: %+v", last)
	}
	linked := db.TraceByID(last.TraceID)
	if linked == nil || linked.Src != last.Src {
		t.Errorf("TraceByID(%d) does not resolve to the slow statement", last.TraceID)
	}
	// With sampling off an unsampled slow statement is retained, as its
	// phases only.
	db.SetTraceSampling(0)
	db.MustQuery(`retrieve (P.a) from P in Ps where P.a = 1`)
	if tr := db.LastTrace(); tr == nil || !tr.Slow || !strings.Contains(tr.Src, "P.a = 1") {
		t.Errorf("unsampled slow statement not retained: %+v", tr)
	} else if tr.ID == last.TraceID {
		t.Errorf("unsampled slow statement reused trace id %d", tr.ID)
	}
	// Turning sampling off and the threshold to 0 stops retention.
	db.SetSlowQueryThreshold(0)
	before := len(db.Traces())
	db.MustQuery(`retrieve (P.a) from P in Ps`)
	if got := len(db.Traces()); got != before {
		t.Errorf("disabled sampling still retained a trace (%d -> %d)", before, got)
	}
	if db.Tracer().Every() != 0 {
		t.Errorf("Every() = %d", db.Tracer().Every())
	}
}

// TestTraceErrorStatement pins the unwind contract: an erroring
// statement still seals its trace (annotated with the error) and leaks
// no spans, whether it fails in the checker or part way through its
// execute phase (Finish closes what the error left open).
func TestTraceErrorStatement(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.SetTraceSampling(1)
	if _, err := db.Query(`retrieve (x = E.salary / 0) from E in Employees`); err == nil {
		t.Fatal("expected a division by zero")
	}
	if _, err := db.Query(`retrieve (E.nosuch) from E in Employees`); err == nil {
		t.Fatal("expected an error")
	}
	s := db.Tracer().Stats()
	if s.SpansStarted != s.SpansFinished {
		t.Errorf("span leak after error: %+v", s)
	}
	if s.TracesStarted != s.TracesFinished {
		t.Errorf("trace leak after error: %+v", s)
	}
	tr := db.LastTrace()
	if tr == nil {
		t.Fatal("error statement not retained")
	}
	if !strings.Contains(trace.Render(tr), "error=") {
		t.Errorf("error not annotated:\n%s", trace.Render(tr))
	}
}

// TestConcurrentTraceStress race-stresses the trace lifecycle: mixed
// reader/writer sessions with 1-in-2 sampling, concurrent ring reads,
// and the leak invariant (finished == started) once the dust settles.
// The Concurrent prefix opts it into CI's race-stress job.
func TestConcurrentTraceStress(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.SetTraceSampling(2)
	const readers, writers, iters = 6, 2, 40
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < iters; i++ {
				if _, err := sess.Query(`retrieve (E.name) from E in Employees where E.dept.floor = 2`); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if i%7 == 0 {
					db.LastTrace()
					db.Traces()
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < iters; i++ {
				src := fmt.Sprintf(`append to Employees (name = "S%d_%d", age = 30, salary = 30)`, g, i)
				if _, err := sess.Exec(src); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := db.Tracer().Stats()
	if s.SpansStarted != s.SpansFinished {
		t.Errorf("span leak under concurrency: %+v", s)
	}
	if s.TracesStarted != s.TracesFinished {
		t.Errorf("trace leak under concurrency: %+v", s)
	}
	if s.TracesStarted == 0 {
		t.Error("sampling never fired")
	}
}
