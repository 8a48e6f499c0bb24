package extra_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	extra "repro"
	"repro/internal/workload"
)

// TestPlanEquivalence is the optimizer's correctness property: for
// randomly generated queries over the synthetic company, the plan
// (pushdown + reordering + index selection) must return exactly the
// multiset of rows the reference evaluator does. This exercises
// conjunct placement, index bound construction — merged two-sided,
// contradictory and equality-inside-range probes included — and join
// reordering end to end.
//
// Every query runs three ways: (a) ad hoc, its literals lifted into
// slots of a cached shape; (b) prepared with its literals in the text,
// which is not lifted; (c) prepared with $n bound to the same values, so
// the index bounds are parameters the run evaluates. The fixed cases add
// what random generation rarely reaches: two $n lower bounds on one
// index, contradictory $n bounds, a $n bound to null, $n bounds on both
// indexes, and ranges whose literal would decide index against scan if
// the planner looked at it. The Figure 5/6 queries are checked against
// the reference evaluator as well.
func TestPlanEquivalence(t *testing.T) {
	db, _, err := workload.New(workload.Params{
		Departments: 8, Employees: 120, MaxKids: 3, Floors: 4, MaxSalary: 1000, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`define index emp_age on Employees (age)`)

	queries := []genQuery{
		fixedQuery("E.salary > ? and E.salary >= ?", 300, 500),
		fixedQuery("E.salary >= ? and E.salary < ?", 700, 200),
		fixedQuery("E.salary = ?", nil),
		fixedQuery("E.salary >= ? and E.age = ?", 100, 40),
		fixedQuery("E.age < ? and E.salary >= ? and E.salary <= ?", 60, 500, 510),
		fixedQuery("E.salary >= ? and E.salary < ?", 0, 100000),
		fixedQuery("E.salary >= ? and E.salary < ?", 400, 402),
	}
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 150; i++ {
		queries = append(queries, randomQuery(rng))
	}
	for _, q := range append(append([]string{}, fig5Queries...), fig6Queries...) {
		if err := extra.OracleCheck(db, q); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		lit, param := q.literal(), q.param()
		want, err := extra.OracleRows(db, lit)
		if err != nil {
			t.Fatalf("oracle %q: %v", lit, err)
		}
		ways := map[string]func() (*extra.Result, error){
			"ad hoc":                     func() (*extra.Result, error) { return db.Query(lit) },
			"prepared, literals in text": func() (*extra.Result, error) { return execPrepared(db, lit) },
			"prepared, $n bound":         func() (*extra.Result, error) { return execPrepared(db, param, q.args...) },
		}
		for way, run := range ways {
			res, err := run()
			if err != nil {
				t.Fatalf("%s %q: %v", way, lit, err)
			}
			if err := extra.DiffRows(fmt.Sprintf("%s (%s, $n form %q)", lit, way, param), extra.CanonRows(res), want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// execPrepared prepares src, runs it once with args and closes it.
func execPrepared(db *extra.DB, src string, args ...any) (*extra.Result, error) {
	st, err := db.Prepare(src)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Exec(args...)
}

// genQuery is a retrieve whose comparison operands are kept apart from
// its text: each "?" in where stands for the next of args, written as a
// literal or as a $n slot.
type genQuery struct {
	from, targets, where string
	args                 []any
}

// fixedQuery is a query over Employees alone.
func fixedQuery(where string, args ...any) genQuery {
	return genQuery{from: "from E in Employees", targets: "E.name, E.salary", where: where, args: args}
}

func (q genQuery) fill(slot func(i int, v any) string) string {
	var b strings.Builder
	i := 0
	for _, r := range q.where {
		if r == '?' {
			b.WriteString(slot(i, q.args[i]))
			i++
			continue
		}
		b.WriteRune(r)
	}
	return fmt.Sprintf("retrieve (%s) %s where %s", q.targets, q.from, b.String())
}

// literal is the query with its operands in the text; null for nil.
func (q genQuery) literal() string {
	return q.fill(func(_ int, v any) string {
		if v == nil {
			return "null"
		}
		return fmt.Sprint(v)
	})
}

// param is the query with $1..$n in place of its operands.
func (q genQuery) param() string {
	return q.fill(func(i int, _ any) string { return "$" + strconv.Itoa(i+1) })
}

// randomQuery builds a retrieve over Employees/Departments with 1–3
// random conjuncts drawn from comparisons, two-sided ranges on the
// indexed attributes, implicit-join paths, nested set aggregates and
// is-joins.
func randomQuery(rng *rand.Rand) genQuery {
	type conj struct {
		text string
		args []any
	}
	one := func(text string, arg int) conj { return conj{text, []any{arg}} }
	conjs := []conj{
		one("E.salary "+cmpOp(rng)+" ?", rng.Intn(1000)),
		one("E.age "+cmpOp(rng)+" ?", 20+rng.Intn(45)),
		rangeConj(rng, "E.salary", 0, 1000),
		rangeConj(rng, "E.age", 20, 65),
		one("E.dept.floor = ?", 1+rng.Intn(4)),
		one("count(E.kids) "+cmpOp(rng)+" ?", rng.Intn(3)),
		{"E.dept is D", nil},
		one("D.floor "+cmpOp(rng)+" ?", 1+rng.Intn(4)),
		one("D.budget < ?", rng.Intn(1000000)),
	}
	n := 1 + rng.Intn(3)
	rng.Shuffle(len(conjs), func(i, j int) { conjs[i], conjs[j] = conjs[j], conjs[i] })
	q := genQuery{from: "from E in Employees", targets: "E.name, E.salary"}
	var texts []string
	for _, c := range conjs[:n] {
		texts = append(texts, c.text)
		q.args = append(q.args, c.args...)
		if strings.Contains(c.text, "D.") || strings.Contains(c.text, "is D") {
			q.from, q.targets = "from E in Employees, D in Departments", "E.name, E.salary, D.dname"
		}
	}
	q.where = strings.Join(texts, " and ")
	return q
}

func cmpOp(rng *rand.Rand) string {
	return []string{"<", "<=", ">", ">=", "=", "!="}[rng.Intn(6)]
}

// rangeConj bounds path from both sides within [lo, hi): inclusive or
// exclusive bounds, in either order, either bound possibly written
// mirrored ("lo <= path"), and sometimes contradictory (lower above
// upper) or with an equality thrown in.
func rangeConj(rng *rand.Rand, path string, lo, hi int) (c struct {
	text string
	args []any
}) {
	a := lo + rng.Intn(hi-lo)
	b := a + rng.Intn((hi-lo)/4+1)
	eq := a - 1 + rng.Intn(b-a+3) // in the range or just outside it
	if rng.Intn(5) == 0 {
		a, b = b, a
	}
	type part struct {
		text string
		arg  int
	}
	lower := part{fmt.Sprintf("%s %s ?", path, []string{">", ">="}[rng.Intn(2)]), a}
	upper := part{fmt.Sprintf("%s %s ?", path, []string{"<", "<="}[rng.Intn(2)]), b}
	if rng.Intn(3) == 0 {
		lower.text = fmt.Sprintf("? %s %s", []string{"<", "<="}[rng.Intn(2)], path)
	}
	if rng.Intn(3) == 0 {
		upper.text = fmt.Sprintf("? %s %s", []string{">", ">="}[rng.Intn(2)], path)
	}
	parts := []part{lower, upper}
	if rng.Intn(4) == 0 {
		parts = append(parts, part{path + " = ?", eq})
	}
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	var texts []string
	for _, p := range parts {
		texts = append(texts, p.text)
		c.args = append(c.args, p.arg)
	}
	c.text = strings.Join(texts, " and ")
	return c
}

// TestParamKeyUsesIndex: a $n compared with an indexed attribute bounds
// the index probe, so a prepared keyed lookup reads the rows its key
// selects and not the extent. Counted on the prepared statement's own
// cached plan (the literal form of its shape, run under EXPLAIN ANALYZE,
// is served that plan): the probe's rows-in is the same at 2 000 and at
// 20 000 employees.
func TestParamKeyUsesIndex(t *testing.T) {
	cases := []struct {
		prepared string
		args     []any
		literal  string
		rows     int
	}{
		{`retrieve (E.name, E.age) from E in Employees where E.name = $1`, []any{"emp-000123"},
			`retrieve (E.name, E.age) from E in Employees where E.name = "emp-000123"`, 1},
		{`retrieve (E.name, E.age) from E in Employees where E.salary >= $1 and E.salary < $2`, []any{2000, 2010},
			`retrieve (E.name, E.age) from E in Employees where E.salary >= 2000 and E.salary < 2010`, 0},
		{`retrieve (E.name, E.age) from E in Employees where E.name >= $1 and E.name < $2`, []any{"emp-000100", "emp-000110"},
			`retrieve (E.name, E.age) from E in Employees where E.name >= "emp-000100" and E.name < "emp-000110"`, 10},
	}
	rowsIn := make([]int64, len(cases))
	for si, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Employees: n, MaxSalary: 1000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec(`define index emp_sal on Employees (salary)`)
		db.MustExec(`define index emp_name on Employees (name)`)
		for i, c := range cases {
			st, err := db.Prepare(c.prepared)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(st.MustExec(c.args...).Rows); got != c.rows {
				t.Fatalf("%q at %d employees: %d rows, want %d", c.prepared, n, got, c.rows)
			}
			before := db.MetricsSnapshot()
			rep, err := db.ExplainAnalyzeReport(c.literal)
			if err != nil {
				t.Fatal(err)
			}
			after := db.MetricsSnapshot()
			if d := after.Counters["plan.cache.hits"] - before.Counters["plan.cache.hits"]; d != 1 {
				t.Fatalf("%q: the analyzed run was not served the prepared statement's plan (%d hits)", c.literal, d)
			}
			node := rep.Plan[0]
			if !strings.HasPrefix(node.Op, "index probe") {
				t.Fatalf("%q at %d employees: %s, want an index probe", c.prepared, n, node.Op)
			}
			if si == 0 {
				rowsIn[i] = node.Actual.RowsIn
			} else if node.Actual.RowsIn != rowsIn[i] {
				t.Errorf("%q: rows-in %d at %d employees, %d at 2000", c.prepared, node.Actual.RowsIn, n, rowsIn[i])
			}
			t.Logf("%s, %d employees: rows-in %d", node.Op, n, node.Actual.RowsIn)
			st.Close()
		}
		db.Close()
	}
}
