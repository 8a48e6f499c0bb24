package extra

import (
	"fmt"
	"strings"
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

// TestPlanCacheOptionsFingerprint: toggling an optimizer switch must
// never serve a plan built under different options.
func TestPlanCacheOptionsFingerprint(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	q := `retrieve (E.name) from E in Employees where E.salary > 80`
	db.MustQuery(q)
	plan, _ := db.Explain(q)
	if !strings.Contains(plan, "(cached)") || !strings.Contains(plan, "index probe") {
		t.Fatalf("expected a cached index-probe plan:\n%s", plan)
	}

	db.SetOptimizer(OptimizerOptions{NoIndexSelect: true})
	plan, _ = db.Explain(q)
	if strings.Contains(plan, "(cached)") || strings.Contains(plan, "index probe") {
		t.Fatalf("option flip served the old fingerprint's plan:\n%s", plan)
	}
	db.MustQuery(q)
	plan, _ = db.Explain(q)
	if !strings.Contains(plan, "(cached)") || strings.Contains(plan, "index probe") {
		t.Fatalf("NoIndexSelect execution not cached under its own key:\n%s", plan)
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

// TestPlanCacheEviction fills the cache past capacity and checks FIFO
// eviction keeps it bounded.
func TestPlanCacheEviction(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`define type P: ( a: int4 ) create Ps : { own P } append to Ps (a = 1)`)
	n := defaultPlanCacheCap + 10
	for i := 0; i < n; i++ {
		db.MustQuery(fmt.Sprintf(`retrieve (P.a) from P in Ps where P.a = %d`, i))
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
