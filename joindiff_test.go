package extra_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	extra "repro"
	"repro/internal/workload"
)

// fig5Queries are the paper's Figure 5 retrieves over the company schema:
// an implicit join through a reference path, an implicit join from a
// nested set, and an explicit is-join — the shapes the hash-join path is
// meant to accelerate.
var fig5Queries = []string{
	`retrieve (E.name, E.salary) from E in Employees where E.dept.floor = 2`,
	`retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2`,
	`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D and E.salary > 80`,
}

// fig6Queries exercise aggregates and universal quantification on the
// same schema (the optimizer must leave quantified residues alone).
var fig6Queries = []string{
	`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`,
	`retrieve (distinct_depts = count(E.dept.dname over E.dept.dname)) from E in Employees`,
}

// joinShapes are queries whose plans take the planner's less common
// paths, each with a fragment its EXPLAIN must contain: a join with no
// equality conjunct runs as a nested rescan, a conjunct that mentions no
// variable stays in the residual filter, and a join of two extents of
// equal size keeps the order written, the second one hashed.
var joinShapes = []struct{ q, plan string }{
	{`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept.floor < D.floor`,
		"-> scan Departments binding D\n  -> scan Employees binding E"},
	{`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D and 2 > 1`,
		"residual: (2 > 1)"},
	{`retrieve (E.name, F.name) from E in Employees, F in Employees where E.dept is F.dept and F.salary < 300`,
		"-> scan Employees binding E\n  -> hash join Employees [(E.dept is F.dept)]"},
}

// TestJoinMethodEquivalence runs the Figure 5/6 queries, the join
// shapes and a batch of randomized multi-variable queries, asserting
// each returns exactly the rows of the reference evaluator.
func TestJoinMethodEquivalence(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 9, Employees: 150, MaxKids: 3, Floors: 4, MaxSalary: 1000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`range of AE is all Employees`)

	queries := append(append([]string{}, fig5Queries...), fig6Queries...)
	// Figure 6's universally quantified retrieve (the optimizer must keep
	// hands off the quantified residue).
	queries = append(queries,
		`retrieve (D.dname) from D in Departments where AE.dept isnot D or AE.salary > 10`)
	for _, s := range joinShapes {
		plan, err := db.Explain(s.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, s.plan) {
			t.Fatalf("%q: plan lacks %q:\n%s", s.q, s.plan, plan)
		}
		queries = append(queries, s.q)
	}
	rng := rand.New(rand.NewSource(321))
	for i := 0; i < 40; i++ {
		queries = append(queries, randomQuery(rng).literal())
	}

	for _, q := range queries {
		want, err := extra.OracleRows(db, q)
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		got, err := db.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if err := extra.DiffRows(q, extra.CanonRows(got), want); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHashJoinExplain pins the observable optimizer decision: an
// explicit is-join plans as a hash join, and a join with no equality
// conjunct plans none and still matches the reference evaluator.
func TestHashJoinExplain(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 6, Employees: 40, MaxKids: 2, Floors: 3, MaxSalary: 500, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	q := `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash join") {
		t.Fatalf("expected a hash join in the plan:\n%s", plan)
	}

	nonEqui := `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept.floor < D.floor`
	plan, err = db.Explain(nonEqui)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "hash join") {
		t.Fatalf("a non-equi join planned a hash join:\n%s", plan)
	}
	if err := extra.OracleCheck(db, nonEqui); err != nil {
		t.Fatal(err)
	}

	// The equality form over a scalar join key must also qualify.
	plan, err = db.Explain(`retrieve (E.name, F.name) from E in Employees, F in Employees where E.dept.floor = F.dept.floor`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash join") {
		t.Fatalf("expected a hash join for the equality join:\n%s", plan)
	}
}

// TestHashJoinBuildsSmallerSide is the work gate of the build-side rule:
// a value join between 20 departments and 2 000, then 20 000, employees
// materializes only the departments its local filter keeps, at both
// sizes, and the larger extent probes them. The analyzed run carries the
// floor as a literal, which the session lifts into the slot the prepared
// $1 fills, so both run one plan; its rows match the reference evaluator.
func TestHashJoinBuildsSmallerSide(t *testing.T) {
	const (
		prepared = `retrieve (d = D.dname, s = sum(E.salary by D.dname)) from E in Employees, D in Departments where E.dept.dname = D.dname and D.floor = $1`
		literal  = `retrieve (d = D.dname, s = sum(E.salary by D.dname)) from E in Employees, D in Departments where E.dept.dname = D.dname and D.floor = 2`
	)
	for _, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Departments: 20, Employees: n, Floors: 5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		onFloor := db.MustQuery(`retrieve (n = count(D.dname)) from D in Departments where D.floor = 2`).Rows[0][0].String()
		if onFloor == "0" {
			t.Fatal("no department on floor 2")
		}
		st, err := db.Prepare(prepared)
		if err != nil {
			t.Fatal(err)
		}
		before := db.MetricsSnapshot().Counters["join.hash.buildrows"]
		res := st.MustExec(2)
		if d := db.MetricsSnapshot().Counters["join.hash.buildrows"] - before; fmt.Sprint(d) != onFloor {
			t.Errorf("%d employees: join.hash.buildrows grew by %d, want the %s departments on floor 2", n, d, onFloor)
		}
		want, err := extra.OracleRows(db, literal)
		if err != nil {
			t.Fatal(err)
		}
		if err := extra.DiffRows(literal, extra.CanonRows(res), want); err != nil {
			t.Error(err)
		}
		out, err := db.ExplainAnalyze(literal)
		if err != nil {
			t.Fatal(err)
		}
		if build := fmt.Sprintf("hash build=%s probes=%d ", onFloor, n); !strings.Contains(out, build) {
			t.Errorf("%d employees: analyze lacks %q:\n%s", n, build, out)
		}
		st.Close()
		db.Close()
	}
}

// TestHashJoinAnalyzeCounters checks that EXPLAIN ANALYZE surfaces the
// hash-join build/probe actuals and the count of object fetches.
func TestHashJoinAnalyzeCounters(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 6, Employees: 60, MaxKids: 2, Floors: 3, MaxSalary: 500, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	out, err := db.ExplainAnalyze(`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hash build=") {
		t.Fatalf("analyze output lacks hash actuals:\n%s", out)
	}

	out, err = db.ExplainAnalyze(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	if err != nil {
		t.Fatal(err)
	}
	// One department fetch per employee: nothing memoizes them.
	if !strings.Contains(out, "derefs: 60\n") {
		t.Fatalf("analyze output lacks the deref count of 60:\n%s", out)
	}

	snap := db.MetricsSnapshot()
	for _, c := range []string{"join.hash.builds", "join.hash.probes"} {
		if snap.Counters[c] == 0 {
			t.Fatalf("metric %s not collected; snapshot: %+v", c, snap.Counters)
		}
	}
}

// TestRefUpdateVisibleToNextQuery is the staleness contract: an update
// to a referenced object between two identical queries must be visible
// to the second, whatever the first left behind in the pooled statement
// state.
func TestRefUpdateVisibleToNextQuery(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 4, Employees: 20, MaxKids: 2, Floors: 3, MaxSalary: 500, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	q := `retrieve (E.name) from E in Employees where E.dept.floor = 9`
	before := db.MustQuery(q)
	if len(before.Rows) != 0 {
		t.Fatalf("no department is on floor 9 yet, got %d rows", len(before.Rows))
	}
	// A query that derefs every department.
	db.MustQuery(`retrieve (E.name, E.dept.floor) from E in Employees`)

	db.MustExec(`replace D (floor = 9) from D in Departments where D.dname = "dept-001"`)

	after := db.MustQuery(q)
	if len(after.Rows) == 0 {
		t.Fatalf("update invisible to the next query: moved dept-001 to floor 9 but no employees found")
	}
	// And moving it back empties the result again.
	db.MustExec(`replace D (floor = 1) from D in Departments where D.dname = "dept-001"`)
	again := db.MustQuery(q)
	if len(again.Rows) != 0 {
		t.Fatalf("stale read: floor 9 still has %d employees after moving dept-001 back", len(again.Rows))
	}
}
