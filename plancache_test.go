package extra

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestPlanCacheHitCounters drives the compile-once contract for
// unprepared statements: the first execution of a retrieve misses the
// cache and populates it, every repetition is a hit, and hits return
// exactly the rows a fresh compilation would.
func TestPlanCacheHitCounters(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	q := `retrieve (E.name) from E in Employees where E.dept.floor = 2`
	first := db.MustQuery(q).String()
	for i := 0; i < 4; i++ {
		if got := db.MustQuery(q).String(); got != first {
			t.Fatalf("cache hit %d returned different rows:\n%s\nvs\n%s", i, got, first)
		}
	}
	s := db.MetricsSnapshot()
	if got := s.Counters["plan.cache.misses"]; got != 1 {
		t.Errorf("plan.cache.misses = %d, want 1", got)
	}
	if got := s.Counters["plan.cache.hits"]; got != 4 {
		t.Errorf("plan.cache.hits = %d, want 4", got)
	}
	if got := s.Gauges["plan.cache.size"]; got != 1 {
		t.Errorf("plan.cache.size = %d, want 1", got)
	}
	if got := db.plans.len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
}

// TestPlanCacheDDLInvalidation is the staleness contract: DDL bumps the
// catalog version, so a plan compiled before it is never served after
// it. Observable through the optimizer's index selection — the cached
// heap-scan plan must not survive "define index".
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	q := `retrieve (E.name) from E in Employees where E.salary > 80`
	want := db.MustQuery(q).String()
	db.MustQuery(q) // hit; the heap-scan plan is now warm

	db.MustExec(`define index emp_sal on Employees (salary)`)

	if got := db.MustQuery(q).String(); got != want {
		t.Fatalf("rows changed across index DDL:\n%s\nvs\n%s", got, want)
	}
	// The post-DDL execution re-planned: its plan probes the new index.
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "index probe emp_sal") {
		t.Fatalf("stale plan served after DDL — no index probe:\n%s", plan)
	}
	s := db.MetricsSnapshot()
	if got := s.Counters["plan.cache.misses"]; got != 2 {
		t.Errorf("plan.cache.misses = %d, want 2 (pre- and post-DDL)", got)
	}
}

// TestPlanCacheExplainCachedMarker pins the EXPLAIN surface: a plan
// served from the cache renders with the "(cached)" marker, a fresh
// compilation does not, and explaining never populates the cache.
func TestPlanCacheExplainCachedMarker(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	q := `retrieve (E.name) from E in Employees where E.dept.floor = 2`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "(cached)") {
		t.Fatalf("unexecuted statement explained as cached:\n%s", plan)
	}
	if got := db.plans.len(); got != 0 {
		t.Fatalf("explain populated the cache: %d entries", got)
	}
	db.MustQuery(q)
	plan, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plan, "(cached)\n") {
		t.Fatalf("executed statement not explained as cached:\n%s", plan)
	}
}

// TestPlanCacheRangeDeclarations: the same statement text means
// different queries under different range declarations, per session and
// across redeclaration — the ranges fingerprint keeps the keys apart.
func TestPlanCacheRangeDeclarations(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	q := `retrieve (n = count(X))`

	s1 := db.NewSession()
	s1.MustExec(`range of X is Employees`)
	if got := s1.MustQuery(q).Rows[0][0].String(); got != "4" {
		t.Fatalf("session 1 count(X) = %s, want 4", got)
	}
	s2 := db.NewSession()
	s2.MustExec(`range of X is Departments`)
	if got := s2.MustQuery(q).Rows[0][0].String(); got != "3" {
		t.Fatalf("session 2 count(X) = %s, want 3 — session 1's plan leaked", got)
	}
	// Redeclaration within one session (no catalog bump) also re-keys.
	s1.MustExec(`range of X is Departments`)
	if got := s1.MustQuery(q).Rows[0][0].String(); got != "3" {
		t.Fatalf("redeclared count(X) = %s, want 3 — stale plan served", got)
	}
}

// TestPlanCacheEviction fills the cache past capacity with distinct
// shapes — a fresh literal alone is a hit on its shape — and checks FIFO
// eviction keeps it bounded.
func TestPlanCacheEviction(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`define type P: ( a: int4 ) create Ps : { own P } append to Ps (a = 1)`)
	n := defaultPlanCacheCap + 10
	for i := 0; i < n; i++ {
		db.MustQuery(fmt.Sprintf(`retrieve (a%d = P.a) from P in Ps where P.a = %d`, i, i))
	}
	s := db.MetricsSnapshot()
	if got := s.Counters["plan.cache.evictions"]; got != uint64(n-defaultPlanCacheCap) {
		t.Errorf("plan.cache.evictions = %d, want %d", got, n-defaultPlanCacheCap)
	}
	if got := db.plans.len(); got != defaultPlanCacheCap {
		t.Errorf("cache holds %d entries, want %d", got, defaultPlanCacheCap)
	}
	if got := s.Gauges["plan.cache.size"]; got != int64(defaultPlanCacheCap) {
		t.Errorf("plan.cache.size = %d, want %d", got, defaultPlanCacheCap)
	}
}

// TestPlanCacheSkipsInto: a retrieve with an into clause creates schema
// and must bypass the cache entirely.
func TestPlanCacheSkipsInto(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	if _, err := db.Exec(`retrieve into Rich (E.name) from E in Employees where E.salary > 80`); err != nil {
		t.Fatal(err)
	}
	s := db.MetricsSnapshot()
	if got := s.Counters["plan.cache.misses"] + s.Counters["plan.cache.hits"]; got != 0 {
		t.Errorf("into-retrieve touched the plan cache: %d lookups", got)
	}
	if got := db.plans.len(); got != 0 {
		t.Errorf("into-retrieve cached a plan: %d entries", got)
	}
}

// TestPlanCacheHitCompilesNothing: a plan-cache entry keeps the plan's
// compiled program, so a hit — ad hoc or prepared — runs it without
// compiling an expression, and a function body keeps its own plan and
// program across calls the same way.
func TestPlanCacheHitCompilesNothing(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`
		define function SameFloor (E: Employee) returns { ref Employee } as
		  retrieve (X) from X in Employees where X.dept.floor = E.dept.floor
		define function Double (E: Employee) returns int4 as (E.salary * 2)
	`)
	adhoc := `retrieve (E.name, n = count(SameFloor(E)), d = Double(E)) from E in Employees where E.dept.floor = 2`
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1 and Double(E) > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first := db.MustQuery(adhoc).String()
	st.MustExec(50)
	compiled := db.MetricsSnapshot().Counters["expr.compile.count"]
	if compiled == 0 {
		t.Fatal("expr.compile.count did not move on the first executions")
	}
	for i := 0; i < 5; i++ {
		if got := db.MustQuery(adhoc).String(); got != first {
			t.Fatalf("hit %d returned different rows:\n%s\nvs\n%s", i, got, first)
		}
		st.MustExec(50 + i)
	}
	s := db.MetricsSnapshot()
	if got := s.Counters["expr.compile.count"]; got != compiled {
		t.Errorf("expr.compile.count moved from %d to %d over 10 cache hits", compiled, got)
	}
	if got := s.Counters["plan.cache.hits"]; got != 10 {
		t.Errorf("plan.cache.hits = %d, want 10", got)
	}
}

// TestAdhocLiteralsShareOnePlan: ad-hoc statements that differ only in
// their comparison literals are one shape, so 1 000 point lookups with
// distinct literals plan and compile once — one miss, 999 hits — and
// every lookup still returns the rows of its own literal.
func TestAdhocLiteralsShareOnePlan(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	salaries := map[int]string{90: "Ann", 50: "Ben", 120: "Cal", 45: "Dee"}
	base := db.MetricsSnapshot()
	var compiledFirst uint64
	for i := 0; i < 1000; i++ {
		res := db.MustQuery(fmt.Sprintf(`retrieve (E.name) from E in Employees where E.salary = %d`, i))
		want, hit := salaries[i]
		if (len(res.Rows) == 1) != hit || hit && res.Rows[0][0].String() != `"`+want+`"` {
			t.Fatalf("salary = %d returned %v, want %q", i, res.Rows, want)
		}
		if i == 0 {
			compiledFirst = db.MetricsSnapshot().Counters["expr.compile.count"] - base.Counters["expr.compile.count"]
		}
	}
	s := db.MetricsSnapshot()
	if got := s.Counters["plan.cache.misses"] - base.Counters["plan.cache.misses"]; got != 1 {
		t.Errorf("plan.cache.misses moved by %d, want 1", got)
	}
	if got := s.Counters["plan.cache.hits"] - base.Counters["plan.cache.hits"]; got != 999 {
		t.Errorf("plan.cache.hits moved by %d, want 999", got)
	}
	if compiledFirst == 0 {
		t.Error("expr.compile.count did not move on the first lookup")
	}
	if got := s.Counters["expr.compile.count"] - base.Counters["expr.compile.count"]; got != compiledFirst {
		t.Errorf("expr.compile.count moved by %d over 1 000 lookups, %d on the first: the shape compiled more than once", got, compiledFirst)
	}
	if got := db.plans.len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
}

// TestAdhocShapeSharedWithPrepared: an ad-hoc statement and a prepared
// one with $n slots of the same types are one entry, whichever runs
// first; slot types stay in the key, so a float literal is a shape of
// its own; and EXPLAIN of a cached shape shows the caller's literals.
func TestAdhocShapeSharedWithPrepared(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary >= $1 and E.salary < $2`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := len(st.MustExec(40, 60).Rows); got != 2 {
		t.Fatalf("prepared range returned %d rows, want 2", got)
	}
	adhoc := `retrieve (E.name) from E in Employees where E.salary >= 80 and E.salary < 100`
	if got := db.MustQuery(adhoc).String(); got != "name\n-----\n\"Ann\"\n" {
		t.Fatalf("ad-hoc range returned\n%s", got)
	}
	s := db.MetricsSnapshot()
	if s.Counters["plan.cache.misses"] != 1 || s.Counters["plan.cache.hits"] != 1 {
		t.Errorf("misses %d, hits %d: want the ad-hoc statement served the prepared shape",
			s.Counters["plan.cache.misses"], s.Counters["plan.cache.hits"])
	}
	plan, err := db.Explain(adhoc)
	if err != nil {
		t.Fatal(err)
	}
	want := "(cached)\n-> index probe emp_sal on Employees [>= <] binding E\n" +
		"   filter: (E.salary >= 80)\n   filter: (E.salary < 100)\n"
	if plan != want {
		t.Errorf("EXPLAIN of the cached shape:\n%s\nwant\n%s", plan, want)
	}
	db.MustQuery(`retrieve (E.name) from E in Employees where E.salary >= 80.5 and E.salary < 100`)
	if got := db.plans.len(); got != 2 {
		t.Errorf("cache holds %d entries, want 2: a float8 slot is another shape", got)
	}
}

// TestPointReadMixHitFraction runs the point-read mix — per 14
// statements, 6 prepared lookups from a set of 64 with their keys in the
// text, 5 ad-hoc lookups from a set of 64 texts and 3 ad-hoc lookups
// with literals never seen before — and requires the ad-hoc statements
// to hit the plan cache at least 95 % of the time: fresh literals are
// hits on their shape and no longer push the hot texts out. The cache
// holds the 64 prepared texts and two ad-hoc shapes, so FIFO never
// evicts.
func TestPointReadMixHitFraction(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`define index emp_name on Employees (name)`)
	var prepared []*Stmt
	for i := 0; i < 64; i++ {
		src := fmt.Sprintf(`retrieve (E.name, E.age) from E in Employees where E.salary = %d`, i)
		if i >= 32 {
			src = fmt.Sprintf(`retrieve (E.name, E.salary, E.age) from E in Employees where E.name = "p-%02d"`, i)
		}
		st, err := db.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		prepared = append(prepared, st)
	}
	var hits, misses uint64
	adhoc := func(src string) {
		before := db.MetricsSnapshot()
		db.MustQuery(src)
		after := db.MetricsSnapshot()
		hits += after.Counters["plan.cache.hits"] - before.Counters["plan.cache.hits"]
		misses += after.Counters["plan.cache.misses"] - before.Counters["plan.cache.misses"]
	}
	fresh := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 6; i++ {
			prepared[(round*6+i)%64].MustExec()
		}
		for i := 0; i < 5; i++ {
			adhoc(fmt.Sprintf(`retrieve (E.name, E.salary) from E in Employees where E.name = "hot-%02d"`, (round*5+i)%64))
		}
		for i := 0; i < 3; i++ {
			fresh++
			adhoc(fmt.Sprintf(`retrieve (E.name, E.age) from E in Employees where E.salary = %d`, 1000+fresh))
		}
	}
	frac := float64(hits) / float64(hits+misses)
	s := db.MetricsSnapshot()
	t.Logf("ad-hoc plan-cache hit fraction %.4f (%d hits, %d misses); cache size %d, %d evictions",
		frac, hits, misses, s.Gauges["plan.cache.size"], s.Counters["plan.cache.evictions"])
	if frac < 0.95 {
		t.Errorf("ad-hoc hit fraction %.4f, want >= 0.95", frac)
	}
	if got := s.Counters["plan.cache.evictions"]; got != 0 {
		t.Errorf("%d evictions: the mix's shapes should fit the cache", got)
	}
}

// TestAdhocPlaceholderNotLifted: an ad-hoc statement with a $n of its
// own is not lifted — a frame of its literals would bind that $n — so it
// fails as unbound exactly as before.
func TestAdhocPlaceholderNotLifted(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	_, err := db.Query(`retrieve (E.name) from E in Employees where E.salary = $1 and E.age = 41`)
	if err == nil || !strings.Contains(err.Error(), "parameter $1 not bound") {
		t.Fatalf("got %v, want parameter $1 not bound", err)
	}
}

// TestParseMemo: the text of a read-only statement is parsed once and
// answered by the memo afterwards — its exact text with no scan, a text
// of the same token shape with no parse — under the ADT registry
// version it was parsed under; write statements are never memoized,
// and the memo stays bounded.
func TestParseMemo(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	q := `retrieve (E.name) from E in Employees where E.salary > 80`
	want := db.MustQuery(q).String()
	memo := db.plans.memoText(q, db.reg.Version())
	if memo == nil {
		t.Fatal("a retrieve's text was not memoized")
	}
	if got := db.MustQuery(q).String(); got != want {
		t.Fatalf("memoized text returned\n%s\nwant\n%s", got, want)
	}
	if again := db.plans.memoText(q, db.reg.Version()); again != memo {
		t.Error("a memo hit parsed the text again")
	}
	fresh := `retrieve (E.name) from E in Employees where E.salary > 95`
	db.MustQuery(fresh)
	if e := db.plans.memoText(fresh, db.reg.Version()); e == nil || e.stmts[0] != memo.stmts[0] {
		t.Error("a fresh literal of a memoized shape was parsed again")
	}
	w := `replace E (age = E.age) from E in Employees where E.salary > 1000`
	db.MustExec(w)
	if db.plans.memoText(w, db.reg.Version()) != nil {
		t.Error("a write statement's text was memoized")
	}
	if _, err := db.Registry().Define("Memo"); err != nil {
		t.Fatal(err)
	}
	if db.plans.memoText(q, db.reg.Version()) != nil {
		t.Error("a parse from before an ADT registration answered after it")
	}
	if got := db.MustQuery(q).String(); got != want {
		t.Fatalf("after the registration the text returned\n%s\nwant\n%s", got, want)
	}
	for i := 0; i < defaultPlanCacheCap+10; i++ {
		db.MustQuery(fmt.Sprintf(`retrieve (E.name) from E in Employees where E.salary > %d`, i))
	}
	if got := len(db.plans.memo); got != defaultPlanCacheCap {
		t.Errorf("memo holds %d entries, want %d", got, defaultPlanCacheCap)
	}
}

// TestConcurrentShapesAndMemo: sessions on several goroutines share one
// cached shape, one prepared plan and the memoized texts while each runs
// its own literals; every lookup returns its own literal's rows.
func TestConcurrentShapesAndMemo(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	names := map[int]string{90: `"Ann"`, 50: `"Ben"`, 120: `"Cal"`, 45: `"Dee"`}
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < 200; i++ {
				sal := []int{90, 50, 120, 45, 1000 + g*1000 + i}[i%5]
				check := func(how string, res *Result, err error) {
					if err != nil {
						t.Error(err)
						return
					}
					want, hit := names[sal]
					if (len(res.Rows) == 1) != hit || hit && res.Rows[0][0].String() != want {
						t.Errorf("%s salary = %d returned %v, want %s", how, sal, res.Rows, want)
					}
				}
				res, err := s.Query(fmt.Sprintf(`retrieve (E.name) from E in Employees where E.salary = %d`, sal))
				check("ad hoc", res, err)
				res, err = st.Exec(sal)
				check("prepared", res, err)
			}
		}(g)
	}
	wg.Wait()
	if got := db.plans.len(); got != 1 {
		t.Errorf("cache holds %d entries, want the one shape", got)
	}
}
