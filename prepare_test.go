package extra

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/types"
)

// TestPrepareRetrieve covers the prepared-statement happy path: $N slots
// typed from their use sites, repeated execution with different
// arguments, and results matching the unprepared equivalents.
func TestPrepareRetrieve(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.NumParams(); got != 1 {
		t.Fatalf("NumParams = %d, want 1", got)
	}
	// The slot's type is inferred from the comparison against salary.
	if pt := st.ptypes[0]; pt == nil || pt.Kind() != types.KInt4 {
		t.Errorf("parameter type = %v, want int4", pt)
	}
	for _, tc := range []struct {
		arg  int
		want string
	}{
		{80, "Ann,Cal"},
		{100, "Cal"},
		{0, "Ann,Ben,Cal,Dee"},
		{1000, ""},
	} {
		res := st.MustExec(tc.arg)
		if got := names(res); got != tc.want {
			t.Errorf("Exec(%d) = %q, want %q", tc.arg, got, tc.want)
		}
	}
	// Argument arity is enforced.
	if _, err := st.Exec(); err == nil || !strings.Contains(err.Error(), "1 parameter") {
		t.Errorf("no-arg Exec error = %v", err)
	}
	if _, err := st.Exec(1, 2); err == nil {
		t.Errorf("two-arg Exec did not error")
	}
}

// TestPrepareAmortizesPhases: the steady-state executions of a prepared
// retrieve perform no parse, check or plan work — only the first Exec
// (and any re-prepare) pays those phases.
func TestPrepareAmortizesPhases(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.MustExec(50) // first execution checks and plans
	base := db.MetricsSnapshot()
	for i := 0; i < 10; i++ {
		st.MustExec(50 + i)
	}
	s := db.MetricsSnapshot()
	// Every statement observes every phase histogram (zero durations
	// included), so amortization shows up as zero accumulated time, not
	// zero observations.
	if d := s.Histograms["phase.check"].SumNS - base.Histograms["phase.check"].SumNS; d != 0 {
		t.Errorf("steady-state Execs spent %dns re-checking", d)
	}
	if d := s.Histograms["phase.plan"].SumNS - base.Histograms["phase.plan"].SumNS; d != 0 {
		t.Errorf("steady-state Execs spent %dns re-planning", d)
	}
	if d := s.Histograms["phase.execute"].Count - base.Histograms["phase.execute"].Count; d != 10 {
		t.Errorf("execute phase observed %d times, want 10", d)
	}
	// The one compilation is the plan cache's one miss; every later
	// execution is served the entry the statement retained.
	if got := s.Counters["plan.cache.misses"]; got != 1 {
		t.Errorf("plan.cache.misses = %d after 11 executions, want 1", got)
	}
	if d := s.Counters["plan.cache.hits"] - base.Counters["plan.cache.hits"]; d != 10 {
		t.Errorf("plan.cache.hits moved by %d over 10 steady-state executions", d)
	}
}

// TestPrepareReprepareAfterDDL: DDL between executions transparently
// re-prepares instead of serving a stale plan.
func TestPrepareReprepareAfterDDL(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := names(st.MustExec(80)); got != "Ann,Cal" {
		t.Fatalf("pre-DDL rows: %q", got)
	}
	verBefore := db.Catalog().Version()

	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`append to Employees (name = "Eve", age = 30, salary = 200)`)

	if got := names(st.MustExec(80)); got != "Ann,Cal,Eve" {
		t.Fatalf("post-DDL rows: %q — stale plan or stale check", got)
	}
	e := st.last.Load()
	if e == nil {
		t.Fatalf("re-prepared statement retains no plan entry")
	}
	if e.key.catVer <= verBefore {
		t.Errorf("statement not re-prepared: retained entry at version %d, pre-DDL version %d", e.key.catVer, verBefore)
	}
}

// TestPrepareNonRetrieve: DML prepares too — parsing and parameter
// typing amortize, checking re-runs per execution (updates invalidate
// their own checked forms).
func TestPrepareNonRetrieve(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	app, err := db.Prepare(`append to Employees (name = $1, age = $2, salary = $3)`)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if got := app.NumParams(); got != 3 {
		t.Fatalf("NumParams = %d, want 3", got)
	}
	app.MustExec("Eve", 30, 60)
	app.MustExec("Fay", 25, 75)
	res := db.MustQuery(`retrieve (n = count(Employees))`)
	if got := res.Rows[0][0].String(); got != "6" {
		t.Fatalf("count after prepared appends = %s, want 6", got)
	}
	res = db.MustQuery(`retrieve (E.salary) from E in Employees where E.name = "Fay"`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "75" {
		t.Fatalf("prepared append mistyped values: %v", res.Rows)
	}
}

// TestPrepareClosed: Exec after Close fails cleanly.
func TestPrepareClosed(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees`)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := st.Exec(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Exec after Close = %v", err)
	}
}

// TestPrepareCheckErrors: bad statements fail at Prepare, not at Exec.
func TestPrepareCheckErrors(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	if _, err := db.Prepare(`retrieve (E.nosuch) from E in Employees`); err == nil {
		t.Errorf("prepare of invalid statement succeeded")
	}
	if _, err := db.Prepare(`retrieve (E.name) from`); err == nil {
		t.Errorf("prepare of unparsable statement succeeded")
	}
}

// TestPrepareConcurrent runs one prepared read-only statement from many
// goroutines; the pinned plan is shared and must be safe under the
// concurrent read path.
func TestPrepareConcurrent(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := names(st.MustExec(80))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := st.Exec(80)
				if err != nil {
					errs <- err
					return
				}
				if got := names(res); got != want {
					errs <- fmt.Errorf("rows %q, want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// requireSealed asserts the tracer's leak invariant: every trace and
// span that was begun has been finished.
func requireSealed(t *testing.T, db *DB, when string) {
	t.Helper()
	s := db.Tracer().Stats()
	if s.TracesStarted != s.TracesFinished || s.SpansStarted != s.SpansFinished {
		t.Errorf("%s: trace leak: %+v", when, s)
	}
}

// TestPreparedExecAfterCloseSealsTrace: a sampled prepared statement run
// on a closed database reports the closure and leaves no trace open.
func TestPreparedExecAfterCloseSealsTrace(t *testing.T) {
	db, err := Open(WithTracing(1, 16))
	if err != nil {
		t.Fatal(err)
	}
	loadCompany(t, db)
	rd, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := db.Prepare(`append to Employees (name = $1, age = 30, salary = 60)`)
	if err != nil {
		t.Fatal(err)
	}
	rd.MustExec(80)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	errorsBefore := db.MetricsSnapshot().Counters["stmt.errors"]
	if _, err := rd.Exec(80); !errors.Is(err, errDBClosed) {
		t.Errorf("prepared read after Close = %v, want errDBClosed", err)
	}
	if _, err := wr.Exec("Eve"); !errors.Is(err, errDBClosed) {
		t.Errorf("prepared write after Close = %v, want errDBClosed", err)
	}
	requireSealed(t, db, "after Exec on a closed database")
	if got := db.MetricsSnapshot().Counters["stmt.errors"]; got != errorsBefore {
		t.Errorf("use-after-close counted as %d statement errors", got-errorsBefore)
	}
}

// TestEntryPointParity drives the Figure 5/6 corpus through every way
// into the statement pipeline — Session.Exec, Prepare+Exec (literals
// lifted to $n), EXPLAIN ANALYZE for retrieves, and WAL close→reopen
// replay for writes — and requires the same rows or the same database,
// and the same accounting: each route moves stmt.<kind> by exactly one,
// observes stmt.latency exactly once and leaves no trace open.
func TestEntryPointParity(t *testing.T) {
	corpus := []struct {
		kind     string
		adhoc    string
		prepared string
		args     []any
	}{
		// Figure 5: implicit join, nested set, explicit join.
		{"retrieve",
			`retrieve (E.name, E.salary) from E in Employees where E.dept.floor = 2`,
			`retrieve (E.name, E.salary) from E in Employees where E.dept.floor = $1`, []any{2}},
		{"retrieve",
			`retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2`,
			`retrieve (C.name) from C in Employees.kids where Employees.dept.floor = $1`, []any{2}},
		{"retrieve",
			`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > 80 and D.floor = E.dept.floor`,
			`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > $1 and D.floor = E.dept.floor`, []any{80}},
		// Figure 6: aggregates with by/over, set-argument aggregates.
		{"retrieve",
			`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`,
			`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`, nil},
		{"retrieve",
			`retrieve (n = count(E.dept.dname over E.dept.dname)) from E in Employees`,
			`retrieve (n = count(E.dept.dname over E.dept.dname)) from E in Employees`, nil},
		{"retrieve",
			`retrieve (E.name, n = count(E.kids)) from E in Employees where count(E.kids) >= 1`,
			`retrieve (E.name, n = count(E.kids)) from E in Employees where count(E.kids) >= $1`, []any{1}},
		// Figure 6: updates.
		{"replace",
			`replace E (salary = E.salary + 10) from E in Employees where E.dept.floor = 2`,
			`replace E (salary = E.salary + $1) from E in Employees where E.dept.floor = $2`, []any{10, 2}},
		{"append",
			`append to Employees (name = "Eve", age = 30, salary = 60)`,
			`append to Employees (name = $1, age = $2, salary = $3)`, []any{"Eve", 30, 60}},
		{"delete",
			`delete E from E in Employees where E.salary < 60`,
			`delete E from E in Employees where E.salary < $1`, []any{60}},
	}

	open := func(dir string) *DB {
		db, err := Open(WithWAL(dir), WithWALSync(WALSyncNone), WithTracing(1, 16))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	// route runs fn and checks what it did to the books.
	route := func(name string, db *DB, kind string, fn func()) {
		t.Helper()
		before := db.MetricsSnapshot()
		fn()
		after := db.MetricsSnapshot()
		if d := after.Counters["stmt."+kind] - before.Counters["stmt."+kind]; d != 1 {
			t.Errorf("%s: stmt.%s moved by %d, want 1", name, kind, d)
		}
		if d := after.Histograms["stmt.latency"].Count - before.Histograms["stmt.latency"].Count; d != 1 {
			t.Errorf("%s: stmt.latency observed %d times, want 1", name, d)
		}
		requireSealed(t, db, name)
	}

	dirA, dirP := t.TempDir(), t.TempDir()
	adhoc, prepared := open(dirA), open(dirP)
	loadCompany(t, adhoc)
	loadCompany(t, prepared)
	for _, tc := range corpus {
		var want *Result
		route("Exec "+tc.adhoc, adhoc, tc.kind, func() { want = adhoc.MustExec(tc.adhoc) })
		st, err := prepared.Prepare(tc.prepared)
		if err != nil {
			t.Fatalf("prepare %q: %v", tc.prepared, err)
		}
		var got *Result
		route("Prepare+Exec "+tc.prepared, prepared, tc.kind, func() { got = st.MustExec(tc.args...) })
		st.Close()
		if tc.kind != "retrieve" {
			continue
		}
		if got.String() != want.String() {
			t.Errorf("%q: prepared rows differ from ad-hoc rows:\n%s\nvs\n%s", tc.adhoc, got, want)
		}
		// The ad-hoc text prepared as it is: its literals stay in the
		// statement (a prepared text is never lifted), where the ad-hoc run
		// lifted them into the slots of a cached shape.
		lit, err := prepared.Prepare(tc.adhoc)
		if err != nil {
			t.Fatalf("prepare %q: %v", tc.adhoc, err)
		}
		route("Prepare+Exec "+tc.adhoc, prepared, tc.kind, func() { got = lit.MustExec() })
		lit.Close()
		if got.String() != want.String() {
			t.Errorf("%q: prepared literal rows differ from ad-hoc rows:\n%s\nvs\n%s", tc.adhoc, got, want)
		}
		route("ExplainAnalyzeReport "+tc.adhoc, adhoc, tc.kind, func() {
			analyzed := adhoc.MetricsSnapshot().Counters["stmt.analyze"]
			rep, err := adhoc.ExplainAnalyzeReport(tc.adhoc)
			if err != nil {
				t.Fatalf("explain analyze %q: %v", tc.adhoc, err)
			}
			if rep.Summary.Rows != len(want.Rows) {
				t.Errorf("%q: analyzed run returned %d rows, ad-hoc %d", tc.adhoc, rep.Summary.Rows, len(want.Rows))
			}
			if d := adhoc.MetricsSnapshot().Counters["stmt.analyze"] - analyzed; d != 1 {
				t.Errorf("%q: stmt.analyze moved by %d, want 1", tc.adhoc, d)
			}
		})
	}

	// Replay: both logs rebuild the one database both routes built, each
	// logged statement counted once under its kind and observed once.
	want := canonicalDump(dumpOf(t, adhoc))
	if got := canonicalDump(dumpOf(t, prepared)); got != want {
		t.Errorf("prepared writes built a different database:\n%s\nvs\n%s", got, want)
	}
	for _, r := range []struct {
		name string
		db   *DB
		dir  string
	}{{"ad-hoc log", adhoc, dirA}, {"prepared log", prepared, dirP}} {
		ran := r.db.MetricsSnapshot()
		if err := r.db.Close(); err != nil {
			t.Fatal(err)
		}
		replayed := open(r.dir)
		if got := canonicalDump(dumpOf(t, replayed)); got != want {
			t.Errorf("%s: replay built a different database:\n%s\nvs\n%s", r.name, got, want)
		}
		m := replayed.MetricsSnapshot()
		var stmts uint64
		for _, kind := range []string{"define", "create", "append", "replace", "delete"} {
			if m.Counters["stmt."+kind] != ran.Counters["stmt."+kind] {
				t.Errorf("%s: replay counted stmt.%s %d times, the run %d", r.name, kind, m.Counters["stmt."+kind], ran.Counters["stmt."+kind])
			}
			stmts += m.Counters["stmt."+kind]
		}
		if got := m.Histograms["stmt.latency"].Count; got != stmts {
			t.Errorf("%s: replay observed stmt.latency %d times for %d statements", r.name, got, stmts)
		}
		requireSealed(t, replayed, r.name+" replay")
		replayed.Close()
	}
}
