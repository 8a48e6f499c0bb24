package extra_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	extra "repro"
	"repro/internal/workload"
)

// TestPlanEquivalence is the optimizer's correctness property: for
// randomly generated queries over the synthetic company, the optimized
// plan (pushdown + reordering + index selection) must return exactly the
// same multiset of rows as the same plan without index selection and as
// the naive plan. This exercises conjunct placement, index bound
// construction — merged two-sided, contradictory and equality-inside-
// range probes included — and join reordering end to end.
func TestPlanEquivalence(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 8, Employees: 120, MaxKids: 3, Floors: 4, MaxSalary: 1000, Seed: 99,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`define index emp_age on Employees (age)`)

	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 150; i++ {
		q := randomQuery(rng)
		db.SetOptimizer(extra.OptimizerOptions{})
		opt, err := db.Query(q)
		if err != nil {
			t.Fatalf("optimized %q: %v", q, err)
		}
		for _, base := range []extra.OptimizerOptions{
			{NoIndexSelect: true},
			{NoPushdown: true, NoIndexSelect: true, NoReorder: true},
		} {
			db.SetOptimizer(base)
			ref, err := db.Query(q)
			if err != nil {
				t.Fatalf("%+v %q: %v", base, q, err)
			}
			if got, want := canon(opt), canon(ref); got != want {
				t.Fatalf("plans disagree for %q:\noptimized (%d rows): %s\n%+v (%d rows): %s",
					q, len(opt.Rows), got, base, len(ref.Rows), want)
			}
		}
	}
}

// randomQuery builds a retrieve over Employees/Departments with 1–3
// random conjuncts drawn from comparisons, two-sided ranges on the
// indexed attributes, implicit-join paths, nested set aggregates and
// is-joins.
func randomQuery(rng *rand.Rand) string {
	conjs := []string{
		fmt.Sprintf("E.salary %s %d", cmpOp(rng), rng.Intn(1000)),
		fmt.Sprintf("E.age %s %d", cmpOp(rng), 20+rng.Intn(45)),
		rangeConj(rng, "E.salary", 0, 1000),
		rangeConj(rng, "E.age", 20, 65),
		fmt.Sprintf("E.dept.floor = %d", 1+rng.Intn(4)),
		fmt.Sprintf("count(E.kids) %s %d", cmpOp(rng), rng.Intn(3)),
		"E.dept is D",
		fmt.Sprintf("D.floor %s %d", cmpOp(rng), 1+rng.Intn(4)),
		fmt.Sprintf("D.budget < %d", rng.Intn(1000000)),
	}
	n := 1 + rng.Intn(3)
	rng.Shuffle(len(conjs), func(i, j int) { conjs[i], conjs[j] = conjs[j], conjs[i] })
	picked := conjs[:n]
	needsD := false
	for _, c := range picked {
		if strings.Contains(c, "D.") || strings.Contains(c, "is D") {
			needsD = true
		}
	}
	from := "from E in Employees"
	targets := "E.name, E.salary"
	if needsD {
		from += ", D in Departments"
		targets += ", D.dname"
	}
	return fmt.Sprintf("retrieve (%s) %s where %s", targets, from, strings.Join(picked, " and "))
}

func cmpOp(rng *rand.Rand) string {
	return []string{"<", "<=", ">", ">=", "=", "!="}[rng.Intn(6)]
}

// rangeConj bounds path from both sides within [lo, hi): inclusive or
// exclusive bounds, in either order, either bound possibly written
// mirrored ("lo <= path"), and sometimes contradictory (lower above
// upper) or with an equality thrown in.
func rangeConj(rng *rand.Rand, path string, lo, hi int) string {
	a := lo + rng.Intn(hi-lo)
	b := a + rng.Intn((hi-lo)/4+1)
	eq := a - 1 + rng.Intn(b-a+3) // in the range or just outside it
	if rng.Intn(5) == 0 {
		a, b = b, a
	}
	lower := fmt.Sprintf("%s %s %d", path, []string{">", ">="}[rng.Intn(2)], a)
	upper := fmt.Sprintf("%s %s %d", path, []string{"<", "<="}[rng.Intn(2)], b)
	if rng.Intn(3) == 0 {
		lower = fmt.Sprintf("%d %s %s", a, []string{"<", "<="}[rng.Intn(2)], path)
	}
	if rng.Intn(3) == 0 {
		upper = fmt.Sprintf("%d %s %s", b, []string{">", ">="}[rng.Intn(2)], path)
	}
	parts := []string{lower, upper}
	if rng.Intn(4) == 0 {
		parts = append(parts, fmt.Sprintf("%s = %d", path, eq))
	}
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return strings.Join(parts, " and ")
}

// canon renders a result as a sorted multiset string.
func canon(r *extra.Result) string {
	lines := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
