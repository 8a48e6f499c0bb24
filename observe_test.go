package extra

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// durRE matches the duration fields of ExplainAnalyze output; actual
// timings vary run to run, so golden comparisons normalize them.
var durRE = regexp.MustCompile(`(time|parse|check|plan|execute)=[^ )\n]+`)

func normalizeAnalyze(s string) string {
	return durRE.ReplaceAllString(s, "$1=?")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestExplainAnalyzeFigure5Golden pins the annotated plan shape for the
// paper's Figure 5 implicit join (E.dept.floor = 2): operator order,
// filter placement and — exactly — the actual row counts: 4 employees
// scanned, 3 on the second floor.
func TestExplainAnalyzeFigure5Golden(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	out, err := db.ExplainAnalyze(`retrieve (E.name, E.salary) from E in Employees where E.dept.floor = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(actual rows=3 loops=1 in=4 ") {
		t.Errorf("expected 4 rows in, 3 out at the scan:\n%s", out)
	}
	if !strings.Contains(out, "rows: 3\n") {
		t.Errorf("expected 3 result rows:\n%s", out)
	}
	checkGolden(t, "explain_analyze_fig5.golden", normalizeAnalyze(out))
}

// TestExplainAnalyzeFigure6Golden pins the Figure 6 aggregate with
// by-partitioning (average salary by floor): all 4 employees feed the
// aggregate, grouped into the 2 floors.
func TestExplainAnalyzeFigure6Golden(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	out, err := db.ExplainAnalyze(`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "aggregate: 4 bindings into 2 groups") {
		t.Errorf("expected 4 bindings into 2 groups:\n%s", out)
	}
	if !strings.Contains(out, "rows: 2\n") {
		t.Errorf("expected 2 result rows:\n%s", out)
	}
	checkGolden(t, "explain_analyze_fig6.golden", normalizeAnalyze(out))
}

// TestExplainAnalyzeJSON checks the machine-readable document carries
// the same actuals as the text rendering.
func TestExplainAnalyzeJSON(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	raw, err := db.ExplainAnalyzeJSON(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Plan []struct {
			Op     string `json:"op"`
			Actual struct {
				RowsIn  int64 `json:"rows_in"`
				RowsOut int64 `json:"rows_out"`
				Loops   int64 `json:"loops"`
			} `json:"actual"`
		} `json:"plan"`
		Summary struct {
			Rows int `json:"rows"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(raw), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if len(rep.Plan) != 1 {
		t.Fatalf("expected 1 plan node, got %d", len(rep.Plan))
	}
	if rep.Plan[0].Actual.RowsIn != 4 || rep.Plan[0].Actual.RowsOut != 3 || rep.Plan[0].Actual.Loops != 1 {
		t.Errorf("scan actuals wrong: %+v", rep.Plan[0].Actual)
	}
	if rep.Summary.Rows != 3 {
		t.Errorf("summary rows = %d", rep.Summary.Rows)
	}
}

// TestExplainAnalyzeUniversal covers the quantified path: forall
// actuals appear and the query still answers correctly.
func TestExplainAnalyzeUniversal(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`range of EV is all Employees`)
	out, err := db.ExplainAnalyze(`retrieve (D.dname) from D in Departments where EV.dept isnot D or EV.salary > 60`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "forall EV:") || !strings.Contains(out, "(actual checked=3 passed=1)") {
		t.Errorf("forall actuals missing:\n%s", out)
	}
	if !strings.Contains(out, "rows: 1\n") {
		t.Errorf("expected 1 row (Books):\n%s", out)
	}
}

// TestErrNotRetrieve pins the typed sentinel across the retrieve-only
// entry points.
func TestErrNotRetrieve(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`define type P: ( a: int4 ) create Ps : { own P }`)
	for name, fn := range map[string]func(string) error{
		"Explain": func(s string) error { _, err := db.Explain(s); return err },
		"ExplainAnalyze": func(s string) error {
			_, err := db.ExplainAnalyze(s)
			return err
		},
		"Query": func(s string) error { _, err := db.Query(s); return err },
	} {
		err := fn(`delete P from P in Ps`)
		if !errors.Is(err, ErrNotRetrieve) {
			t.Errorf("%s: error %v is not ErrNotRetrieve", name, err)
		}
		if err != nil && err.Error()[0] >= 'A' && err.Error()[0] <= 'Z' {
			t.Errorf("%s: error message capitalized: %q", name, err)
		}
	}
}

// TestMetricsAfterStatements drives the statement path and asserts the
// registry fills in: per-kind counters, phase latencies, rows returned
// and pool attribution in the merged snapshot.
func TestMetricsAfterStatements(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	for i := 0; i < 3; i++ {
		db.MustQuery(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	}
	if _, err := db.Exec(`delete E from E in Employees where E.name = "nobody"`); err != nil {
		t.Fatal(err)
	}
	s := db.MetricsSnapshot()
	if got := s.Counters["stmt.retrieve"]; got != 3 {
		t.Errorf("stmt.retrieve = %d", got)
	}
	if got := s.Counters["stmt.delete"]; got != 1 {
		t.Errorf("stmt.delete = %d", got)
	}
	if got := s.Counters["rows.returned"]; got != 9 {
		t.Errorf("rows.returned = %d", got)
	}
	if s.Counters["stmt.append"] == 0 || s.Counters["stmt.define"] == 0 {
		t.Errorf("DDL/DML counters empty: %v", s.Counters)
	}
	for _, h := range []string{"phase.parse", "phase.check", "phase.plan", "phase.execute", "stmt.latency"} {
		if s.Histograms[h].Count == 0 {
			t.Errorf("histogram %s empty", h)
		}
	}
	// Registry reset keeps handles but zeroes values.
	db.Metrics().Reset()
	if got := db.MetricsSnapshot().Counters["stmt.retrieve"]; got != 0 {
		t.Errorf("stmt.retrieve after reset = %d", got)
	}
	db.MustQuery(`retrieve (E.name) from E in Employees`)
	if got := db.MetricsSnapshot().Counters["stmt.retrieve"]; got != 1 {
		t.Errorf("stmt.retrieve after reset+query = %d", got)
	}
}

// TestSlowQueryLog exercises the threshold and the ring buffer: with a
// zero-distance threshold every statement lands in the log, and the
// trace ring (capacity 2, tracing off) keeps only the most recent
// entries, oldest first.
func TestSlowQueryLog(t *testing.T) {
	db, err := Open(WithSlowQueryLog(time.Nanosecond), WithTracing(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`define type P: ( a: int4 ) create Ps : { own P } append to Ps (a = 1)`)
	for _, q := range []string{
		`retrieve (P.a) from P in Ps where P.a = 1`,
		`retrieve (P.a) from P in Ps where P.a = 2`,
		`retrieve (P.a) from P in Ps where P.a = 3`,
	} {
		db.MustQuery(q)
	}
	got := db.SlowQueries()
	if len(got) != 2 {
		t.Fatalf("slow log kept %d entries, want 2", len(got))
	}
	if !strings.Contains(got[0].Src, "P.a = 2") || !strings.Contains(got[1].Src, "P.a = 3") {
		t.Errorf("ring order wrong: %q, %q", got[0].Src, got[1].Src)
	}
	if got[1].Rows != 0 || got[0].Total <= 0 {
		t.Errorf("entry fields not populated: %+v", got[0])
	}
	if got[0].Parse <= 0 && got[0].Check <= 0 && got[0].Plan <= 0 && got[0].Execute <= 0 {
		t.Errorf("no phase durations recorded: %+v", got[0])
	}
	// Raising the threshold stops logging.
	db.SetSlowQueryThreshold(0)
	db.MustQuery(`retrieve (P.a) from P in Ps`)
	if n := len(db.SlowQueries()); n != 2 {
		t.Errorf("disabled log still grew: %d entries", n)
	}
}

// TestSlowStatementRetainedAsTrace pins the slow-query log as a view
// over the trace ring: with tracing off, a statement over the threshold
// is retained as a trace of its phases, the log entry is read from that
// trace under its own id, and the default ring keeps 32 of them.
func TestSlowStatementRetainedAsTrace(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.SetSlowQueryThreshold(time.Nanosecond)
	q := `retrieve (E.name, E.salary) from E in Employees where E.dept.floor = 2`
	db.MustQuery(q)
	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow entries")
	}
	e := slow[len(slow)-1]
	tr := db.TraceByID(e.TraceID)
	if e.TraceID == 0 || tr == nil || tr.Src != q || tr.Rows != 3 || e.Rows != 3 {
		t.Fatalf("entry %+v does not resolve to the statement's trace: %+v", e, tr)
	}
	if every := db.Tracer().Every(); every != 0 {
		t.Fatalf("setup: sampling is on (every %d)", every)
	}
	var parse, check, plan, execute time.Duration
	for _, sp := range tr.Spans {
		switch {
		case sp.Kind == trace.KindOperator || sp.Kind == trace.KindStorage:
			t.Errorf("unsampled slow trace has span %q of kind %v", sp.Name, sp.Kind)
		case sp.Name == "parse":
			parse += sp.Dur
		case sp.Name == "check":
			check += sp.Dur
		case sp.Name == "plan":
			plan += sp.Dur
		case sp.Name == "execute":
			execute += sp.Dur
		}
	}
	if parse != e.Parse || check != e.Check || plan != e.Plan || execute != e.Execute || execute == 0 {
		t.Errorf("phase spans parse=%v check=%v plan=%v execute=%v, entry %+v", parse, check, plan, execute, e)
	}
	if s := db.Tracer().Stats(); s.TracesStarted != s.TracesFinished || s.SpansStarted != s.SpansFinished {
		t.Errorf("lifecycle counters unbalanced: %+v", s)
	}
	for i := 0; i < 40; i++ {
		db.MustQuery(`retrieve (D.dname) from D in Departments`)
	}
	if n := len(db.SlowQueries()); n != 32 {
		t.Errorf("default ring kept %d slow statements, want 32", n)
	}
}

// TestExplainAnalyzeIsAStatement: EXPLAIN ANALYZE is a mode of statement
// execution, so an analyzed retrieve over the slow threshold is in the
// slow-query log like any other, linked to its retained trace.
func TestExplainAnalyzeIsAStatement(t *testing.T) {
	db, err := Open(WithSlowQueryLog(time.Nanosecond), WithTracing(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadCompany(t, db)
	q := `retrieve (E.name) from E in Employees where E.dept.floor = 2`
	if _, err := db.ExplainAnalyze(q); err != nil {
		t.Fatal(err)
	}
	slow := db.SlowQueries()
	last := slow[len(slow)-1]
	if last.Src != q || last.Rows != 3 {
		t.Fatalf("analyzed statement not the newest slow-log entry: %+v", last)
	}
	if tr := db.TraceByID(last.TraceID); tr == nil || tr.Src != q {
		t.Errorf("slow-log entry's trace %d does not resolve to the statement: %+v", last.TraceID, tr)
	}
}

// TestAnalyzeReportIndexProbe checks per-operator actuals when the
// access method is a B+-tree probe rather than a heap scan.
func TestAnalyzeReportIndexProbe(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	rep, err := db.ExplainAnalyzeReport(`retrieve (E.name) from E in Employees where E.salary > 80`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plan) != 1 || !strings.Contains(rep.Plan[0].Op, "index probe emp_sal") {
		t.Fatalf("expected an index probe, got %+v", rep.Plan)
	}
	// Ann (90) and Cal (120) earn over 80; the probe should fetch only
	// qualifying candidates.
	if rep.Plan[0].Actual.RowsOut != 2 {
		t.Errorf("probe rows out = %d, want 2", rep.Plan[0].Actual.RowsOut)
	}
	if rep.Summary.Rows != 2 {
		t.Errorf("summary rows = %d", rep.Summary.Rows)
	}
}
