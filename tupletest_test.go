package extra_test

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	extra "repro"
	"repro/internal/workload"
)

// tupleTestSchema is a small company on which the scan's tuple tests
// (the leading V.a op k and V.r.a op k conjuncts of a filter, decided on
// the raw tuple) meet every row they must reject or leave to the filter:
// an employee without an age, one whose department was deleted (a
// dangling hop), one without a department (a null ref), one whose
// department is an Annex (a subtype reached by the hop), a supertype
// extent holding Employee members, and kids that are Employees.
const tupleTestSchema = `
	define type Department: ( dname: varchar, floor: int4 )
	define type Annex inherits Department: ( wing: int4 )
	define type Pet: ( pname: varchar, legs: int4 )
	define type Person: ( name: varchar, age: int4, tiny: int1, small: int2, kids: { ref Person }, pets: { own Pet } )
	define type Employee inherits Person: ( salary: int4, dept: ref Department )
	create Departments : { own Department }
	create Annexes : { own Annex }
	create People : { own Person }
	create Employees : { own Employee }
`

const tupleTestData = `
	append to Departments (dname = "Toys", floor = 2)
	append to Departments (dname = "Shoes", floor = 3)
	append to Departments (dname = "Gone", floor = 2)
	append to Annexes (dname = "Wing", floor = 2, wing = 7)
	append to Employees (name = "Ann", age = 30, tiny = 3, small = 300, salary = 90, dept = D) from D in Departments where D.dname = "Toys"
	append to Employees (name = "Ben", age = 45, tiny = -4, small = -2, salary = 70, dept = D) from D in Departments where D.dname = "Shoes"
	append to Employees (name = "Cy", tiny = 9, small = 9, salary = 50, dept = D) from D in Departments where D.dname = "Toys"
	append to Employees (name = "Dee", age = 38, tiny = 1, small = 100, salary = 60, dept = D) from D in Departments where D.dname = "Gone"
	append to Employees (name = "Eve", age = 52, tiny = 5, small = 500, salary = 80)
	append to Employees (name = "Fay", age = 41, tiny = 2, small = 200, salary = 40, dept = A) from A in Annexes
	append to People (name = "Pam", age = 33, tiny = 7, small = 70)
	append to People (name = "Quin", tiny = 8, small = 80)
	append to People (E) from E in Employees where E.name = "Ann" or E.name = "Ben"
	append to E.kids (P) from E in Employees, P in People where E.name = "Ann"
	append to E.kids (K) from E in Employees, K in Employees where E.name = "Ben" and K.name != "Ben"
	append to E.pets (pname = "Rex", legs = 4) from E in Employees where E.name = "Ann" or E.name = "Eve"
	append to E.pets (pname = "Tweety", legs = 2) from E in Employees where E.name = "Ann"
	append to E.pets (pname = "Nemo") from E in Employees where E.name = "Cy"
	delete D from D in Departments where D.dname = "Gone"
`

// tupleTestCase is one statement in its $n form with the arguments of
// one run; literal renders the arguments into the text, as an ad-hoc
// statement carries them.
type tupleTestCase struct {
	name string
	src  string
	args []any
}

var dollar = regexp.MustCompile(`\$[0-9]+`)

func (c tupleTestCase) literal() string {
	return dollar.ReplaceAllStringFunc(c.src, func(p string) string {
		var i int
		fmt.Sscanf(p, "$%d", &i)
		if v := c.args[i-1]; v != nil {
			return fmt.Sprint(v)
		}
		return "null"
	})
}

// TestTupleTestsMatchOracle checks statements whose filters lead with
// tuple tests against the reference evaluator, prepared with $n bound
// and ad hoc with the literals in the text (the session lifts them into
// the slots the prepared form fills): a null field, a null $n, a
// dangling hop, a null ref, a hop to a subtype, a supertype extent and
// an unnest meeting subtype members (which the tests leave to the
// filter), the mirrored form, int1 and int2 attributes, and a later
// conjunct that fails, which must fail exactly when some row passes the
// tested conjunct before it.
func TestTupleTestsMatchOracle(t *testing.T) {
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(tupleTestSchema)
	db.MustExec(tupleTestData)

	const (
		rng     = `retrieve (E.name) from E in Employees where E.age >= $1 and E.age < $2`
		hop     = `retrieve (E.name) from E in Employees where E.dept.floor = $1`
		divides = `retrieve (E.name) from E in Employees where E.age < $1 and E.salary / (E.age - E.age) = 0`
	)
	cases := []tupleTestCase{
		{"range with a null age", rng, []any{30, 50}},
		{"range matching nothing", rng, []any{60, 70}},
		{"null lower bound", rng, []any{nil, 50}},
		{"null upper bound", rng, []any{0, nil}},
		{"null equality", `retrieve (E.name) from E in Employees where E.age = $1`, []any{nil}},
		{"dangling, null and subtype hops", hop, []any{2}},
		{"hop negated", `retrieve (E.name) from E in Employees where E.dept.floor != $1`, []any{2}},
		{"null $n on a hop", hop, []any{nil}},
		{"a test, then a hop to a subtype", `retrieve (E.name) from E in Employees where E.age > $1 and E.dept.floor = $2`, []any{35, 2}},
		{"supertype extent", `retrieve (P.name, P.age) from P in People where P.age > $1`, []any{31}},
		{"supertype extent, two tests", `retrieve (P.name) from P in People where P.age > $1 and P.small < $2`, []any{0, 250}},
		{"mirrored", `retrieve (E.name) from E in Employees where $1 > E.age`, []any{41}},
		{"mirrored range", `retrieve (E.name) from E in Employees where $1 <= E.age and $2 >= E.age`, []any{38, 45}},
		{"mirrored hop", `retrieve (E.name) from E in Employees where $1 <= E.dept.floor`, []any{3}},
		{"int1", `retrieve (E.name, E.tiny) from E in Employees where E.tiny < $1`, []any{3}},
		{"int2", `retrieve (E.name, E.small) from E in Employees where E.small >= $1 and E.small != $2`, []any{0, 300}},
		{"literal and $n", `retrieve (E.name) from E in Employees where E.age >= 40 and E.tiny > $1`, []any{1}},
		{"unnest with subtype kids", `retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < $1`, []any{50}},
		{"unnest, a null kid age", `retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age >= $1`, []any{0}},
		{"unnest of own tuples", `retrieve (E.name, X.pname) from E in Employees, X in E.pets where X.legs > $1`, []any{2}},
		{"unnest of own tuples, a null", `retrieve (E.name, X.pname) from E in Employees, X in E.pets where X.legs != $1`, []any{4}},
		{"a later conjunct fails", divides, []any{40}},
		{"a later conjunct not reached", divides, []any{20}},
		{"a later conjunct past a null", divides, []any{nil}},
	}
	for _, c := range cases {
		lit := c.literal()
		want, oerr := extra.OracleRows(db, lit)
		ways := map[string]func() (*extra.Result, error){
			"prepared": func() (*extra.Result, error) { return execPrepared(db, c.src, c.args...) },
			"ad hoc":   func() (*extra.Result, error) { return db.Query(lit) },
		}
		for way, run := range ways {
			res, err := run()
			switch {
			case err != nil && oerr != nil:
				if !strings.Contains(err.Error(), "division by zero") {
					t.Errorf("%s (%s): engine failed with %v, oracle with %v", c.name, way, err, oerr)
				}
			case err != nil:
				t.Errorf("%s (%s): %s: engine failed (%v), oracle returned %d rows", c.name, way, lit, err, len(want))
			case oerr != nil:
				t.Errorf("%s (%s): %s: oracle failed (%v), engine returned %d rows", c.name, way, lit, oerr, len(res.Rows))
			default:
				if err := extra.DiffRows(lit, extra.CanonRows(res), want); err != nil {
					t.Errorf("%s (%s): %v", c.name, way, err)
				}
			}
		}
	}
	// The division fails only where a row passes E.age < $1: pin that the
	// oracle agrees on which runs fail, so the corpus above tests it.
	for _, c := range []struct {
		arg   any
		fails bool
	}{{40, true}, {20, false}, {nil, false}} {
		lit := tupleTestCase{src: divides, args: []any{c.arg}}.literal()
		if _, err := extra.OracleRows(db, lit); (err != nil) != c.fails {
			t.Errorf("%s: oracle error %v, want failure %v", lit, err, c.fails)
		}
	}
}

// analyzeCounts extracts per operator the actual rows, rows in and loops
// of an EXPLAIN ANALYZE, and its derefs line ("" when it has none).
func analyzeCounts(out string) (nodes []string, derefs string) {
	for _, m := range regexp.MustCompile(`actual rows=(\d+) loops=(\d+) in=(\d+)`).FindAllStringSubmatch(out, -1) {
		nodes = append(nodes, fmt.Sprintf("out=%s loops=%s in=%s", m[1], m[2], m[3]))
	}
	if m := regexp.MustCompile(`derefs: (\d+)`).FindStringSubmatch(out); m != nil {
		derefs = m[1]
	}
	return nodes, derefs
}

// TestTupleTestsAnalyzeParity pins EXPLAIN ANALYZE's per-node rows in,
// rows out and loops and the statement's derefs for filters the tuple
// tests decide: rows the tests reject still count as rows in, a ref hop
// a test decides is fetched once and not again by the filter, and a row
// the tests leave to the filter (an Annex reached by the hop) is fetched
// once more by the filter but counted once. The figures are those the
// filter alone produced before the tests existed.
func TestTupleTestsAnalyzeParity(t *testing.T) {
	db, _, err := workload.New(workload.Params{Departments: 6, Employees: 60, MaxKids: 2, Floors: 3, MaxSalary: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	edge, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer edge.Close()
	edge.MustExec(tupleTestSchema)
	edge.MustExec(tupleTestData)
	for _, c := range []struct {
		db     *extra.DB
		src    string
		nodes  []string
		derefs string
	}{
		{db, `retrieve (E.name, E.salary) from E in Employees where E.age >= 30 and E.age < 40`,
			[]string{"out=11 loops=1 in=60"}, ""},
		{db, `retrieve (n = count(E.name)) from E in Employees where 40 > E.age`,
			[]string{"out=25 loops=1 in=60"}, ""},
		{db, `retrieve (E.name) from E in Employees where E.dept.floor = 2`,
			[]string{"out=19 loops=1 in=60"}, "60"},
		{db, `retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < 10`,
			[]string{"out=60 loops=1 in=60", "out=33 loops=60 in=54"}, "54"},
		{edge, `retrieve (E.name) from E in Employees where E.age > 35 and E.dept.floor = 2`,
			[]string{"out=1 loops=1 in=6"}, "3"},
		{edge, `retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < 50`,
			[]string{"out=6 loops=1 in=6", "out=6 loops=6 in=9"}, "9"},
		{edge, `retrieve (E.name, X.pname) from E in Employees, X in E.pets where X.legs > 2`,
			[]string{"out=6 loops=1 in=6", "out=2 loops=6 in=4"}, ""},
		{edge, `retrieve (P.name) from P in People where P.age > 31`,
			[]string{"out=2 loops=1 in=4"}, ""},
	} {
		out, err := c.db.ExplainAnalyze(c.src)
		if err != nil {
			t.Fatal(err)
		}
		nodes, derefs := analyzeCounts(out)
		if strings.Join(nodes, "; ") != strings.Join(c.nodes, "; ") || derefs != c.derefs {
			t.Errorf("%s: nodes %q derefs %q, want %q derefs %q:\n%s", c.src, nodes, derefs, c.nodes, c.derefs, out)
		}
	}
}

// TestTupleTestsSharedAcrossSessions runs one cached range-filter
// program in two sessions at once, each with its own bounds, prepared
// with $n bound and ad hoc with the literals in the text (lifted into the
// same program's slots). The program's tuple tests read their operands
// from the running statement's frame, so each session must see its own
// bounds' rows, as the reference evaluator computes them, and neither
// compiles anything (run it under -race).
func TestTupleTestsSharedAcrossSessions(t *testing.T) {
	db, _, err := workload.New(workload.Params{Departments: 6, Employees: 300, MaxKids: 2, Floors: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const src = `retrieve (E.name, E.salary) from E in Employees where E.age >= $1 and E.age < $2 and E.dept.floor = $3`
	bounds := [][]any{{20, 40, 1}, {40, 65, 2}}
	sessions := []*extra.Session{db.NewSession(), db.NewSession()}
	stmts := make([]*extra.Stmt, len(sessions))
	texts := make([]string, len(sessions))
	want := make([][]string, len(sessions))
	for i, s := range sessions {
		st, err := s.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stmts[i] = st
		texts[i] = tupleTestCase{src: src, args: bounds[i]}.literal()
		if want[i], err = extra.OracleRows(db, texts[i]); err != nil {
			t.Fatal(err)
		}
		if len(want[i]) == 0 {
			t.Fatalf("%s returns no row", texts[i])
		}
		s.MustQuery(texts[i]) // caches the ad-hoc shape
	}
	compiled := db.MetricsSnapshot().Counters["expr.compile.count"]

	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *extra.Session) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				res, err := stmts[i].Exec(bounds[i]...)
				if err == nil {
					err = extra.DiffRows(fmt.Sprintf("session %d prepared %v", i, bounds[i]), extra.CanonRows(res), want[i])
				}
				if err == nil {
					res, err = s.Query(texts[i])
				}
				if err == nil {
					err = extra.DiffRows(fmt.Sprintf("session %d ad hoc", i), extra.CanonRows(res), want[i])
				}
				if err != nil {
					t.Errorf("round %d: %v", r, err)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	if got := db.MetricsSnapshot().Counters["expr.compile.count"]; got != compiled {
		t.Errorf("expr.compile.count moved from %d to %d while the sessions ran cached statements", compiled, got)
	}
}
