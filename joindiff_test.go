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

// joinOptionGrid is every combination of the join-related optimizer
// switches plus the expression-compiler switch; each must produce the
// same rows as the fully naive (interpreted) plan.
func joinOptionGrid() []extra.OptimizerOptions {
	var grid []extra.OptimizerOptions
	for _, noHash := range []bool{false, true} {
		for _, noReorder := range []bool{false, true} {
			for _, noCompile := range []bool{false, true} {
				grid = append(grid, extra.OptimizerOptions{
					NoHashJoin: noHash, NoReorder: noReorder, NoCompiledExprs: noCompile,
				})
			}
		}
	}
	return grid
}

var naiveOpts = extra.OptimizerOptions{
	NoPushdown: true, NoIndexSelect: true, NoReorder: true,
	NoHashJoin: true, NoCompiledExprs: true,
}

func optLabel(o extra.OptimizerOptions) string {
	return fmt.Sprintf("hash=%v reorder=%v compile=%v",
		!o.NoHashJoin, !o.NoReorder, !o.NoCompiledExprs)
}

// TestJoinMethodEquivalence runs the Figure 5/6 queries and a batch of
// randomized multi-variable queries under every combination of hash-join
// / reorder / compile switches, asserting each returns exactly the rows
// of the fully naive nested-loop plan.
func TestJoinMethodEquivalence(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 9, Employees: 150, MaxKids: 3, Floors: 4, MaxSalary: 1000, Seed: 7,
	}, 0)
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
	rng := rand.New(rand.NewSource(321))
	for i := 0; i < 40; i++ {
		queries = append(queries, randomQuery(rng).literal())
	}

	for _, q := range queries {
		db.SetOptimizer(naiveOpts)
		naive, err := db.Query(q)
		if err != nil {
			t.Fatalf("naive %q: %v", q, err)
		}
		want := canon(naive)
		for _, opts := range joinOptionGrid() {
			db.SetOptimizer(opts)
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s %q: %v", optLabel(opts), q, err)
			}
			if canon(got) != want {
				t.Fatalf("rows disagree for %q under %s:\ngot (%d rows): %s\nnaive (%d rows): %s",
					q, optLabel(opts), len(got.Rows), canon(got), len(naive.Rows), want)
			}
		}
	}
}

// TestHashJoinExplain pins the observable optimizer decision: an
// explicit is-join plans as a hash join, and disabling the switch
// reverts to the nested scan.
func TestHashJoinExplain(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 6, Employees: 40, MaxKids: 2, Floors: 3, MaxSalary: 500, Seed: 5,
	}, 0)
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

	db.SetOptimizer(extra.OptimizerOptions{NoHashJoin: true})
	plan, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "hash join") {
		t.Fatalf("NoHashJoin still produced a hash join:\n%s", plan)
	}

	// The equality form over a scalar join key must also qualify.
	db.SetOptimizer(extra.OptimizerOptions{})
	plan, err = db.Explain(`retrieve (E.name, F.name) from E in Employees, F in Employees where E.dept.floor = F.dept.floor`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash join") {
		t.Fatalf("expected a hash join for the equality join:\n%s", plan)
	}
}

// TestHashJoinAnalyzeCounters checks that EXPLAIN ANALYZE surfaces the
// hash-join build/probe actuals and the count of object fetches.
func TestHashJoinAnalyzeCounters(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 6, Employees: 60, MaxKids: 2, Floors: 3, MaxSalary: 500, Seed: 11,
	}, 0)
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

// TestDerefCacheInvalidation is the staleness contract: an update to a
// referenced object between two identical queries must be visible to the
// second, whatever the first left behind in the pooled statement state.
func TestDerefCacheInvalidation(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 4, Employees: 20, MaxKids: 2, Floors: 3, MaxSalary: 500, Seed: 3,
	}, 0)
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
