package extra_test

import (
	"math"
	"strings"
	"testing"

	extra "repro"
)

// joinKeySchema is a small database on which hash-join and group keys
// meet every value their exact modes must key apart or leave to the
// re-check: null keys, a dangling and a null reference, char[4] codes
// and varchar names with trailing blanks on each side (and a char-kind
// string stored in a varchar attribute), int2 against int4, int against
// float, -0.0, +0.0 and NaN, an Annex (a subtype the probe's reference
// reaches), employees sharing a department (targets that repeat) and
// bosses all distinct.
const joinKeySchema = `
	define type Dept: ( dname: varchar, code: char[4], floor: int4, budget: float8 )
	define type Annex inherits Dept: ( wing: int4 )
	define type Emp: ( name: varchar, tag: char[4], age: int4, small: int2, x: float8, dept: ref Dept, boss: ref Emp )
	create Depts : { own Dept }
	create Annexes : { own Annex }
	create Emps : { own Emp }
`

const joinKeyData = `
	append to Depts (dname = "a", code = "a", floor = 1, budget = 30.0)
	append to Depts (dname = "a ", code = "a ", floor = 2, budget = 2.5)
	append to Depts (dname = "b", code = "b", floor = 2, budget = 41.0)
	append to Depts (code = "n", floor = 3)
	append to Depts (dname = "gone", code = "g", floor = 1, budget = 1.0)
	append to Annexes (dname = "a", code = "w", floor = 2, budget = 30.0, wing = 7)
	append to Emps (name = "a", tag = "a", age = 30, small = 1, x = 30.0, dept = D) from D in Depts where D.dname = "a"
	append to Emps (name = "a ", tag = "b ", age = 41, small = 2, x = 2.5, dept = D) from D in Depts where D.dname = "a"
	append to Emps (name = "a  ", tag = "a ", age = 2, small = 3, x = 41.0, dept = D) from D in Depts where D.dname = "a "
	append to Emps (name = "b", tag = "b", age = 1, small = 2, dept = D) from D in Depts where D.dname = "b"
	append to Emps (name = "n", tag = "n", age = 3, small = 30, x = 1.0, dept = D) from D in Depts where D.code = "n"
	append to Emps (name = "g", tag = "g", age = 1, small = 1, dept = D) from D in Depts where D.dname = "gone"
	append to Emps (name = "w", tag = "w", age = 2, small = 7, x = 30.0, dept = A) from A in Annexes
	append to Emps (name = "z", age = 9, small = 9)
	append to Emps (name = D.code, tag = D.dname, age = 2, small = 2, dept = D) from D in Depts where D.dname = "a "
	delete D from D in Depts where D.dname = "gone"
	replace E (boss = B) from E in Emps, B in Emps where B.small = E.small + 1
`

// TestJoinKeysMatchOracle checks hash joins, and by keys the reference
// memo serves, against the reference evaluator and, for joins, against
// the nested-loop form of the same plan (NestedRescan), prepared with $n
// bound and ad hoc with the literals in the text. A write statement's
// read phase uses the memo too: its effect must be that of the
// nested-loop form of the same statement.
func TestJoinKeysMatchOracle(t *testing.T) {
	db := joinKeyDB(t)
	defer db.Close()
	// -0.0, +0.0 and NaN float keys, through the API: no literal makes NaN.
	for _, x := range []float64{math.Copysign(0, -1), 0, math.NaN()} {
		if _, err := db.Insert("Emps", extra.Attrs{"name": "f", "age": 0, "x": x}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Insert("Depts", extra.Attrs{"dname": "f", "floor": 0, "budget": x}); err != nil {
			t.Fatal(err)
		}
	}
	const refJoin = `retrieve (E.name, D.dname, D.floor) from E in Emps, D in Depts where E.dept.dname = D.dname`
	cases := []tupleTestCase{
		{"null keys, a dangling and a null ref, a subtype target", refJoin, nil},
		{"varchar against varchar with trailing blanks", `retrieve (E.name, D.dname) from E in Emps, D in Depts where E.name = D.dname`, nil},
		{"varchar against char", `retrieve (E.name, D.code) from E in Emps, D in Depts where E.name = D.code`, nil},
		{"char against varchar", `retrieve (E.tag, D.dname) from E in Emps, D in Depts where E.tag = D.dname`, nil},
		{"char against char", `retrieve (E.tag, D.code) from E in Emps, D in Depts where E.tag = D.code`, nil},
		{"hop to varchar against char", `retrieve (E.name, D.code) from E in Emps, D in Depts where E.dept.dname = D.code`, nil},
		{"int2 against int4", `retrieve (E.name, D.dname) from E in Emps, D in Depts where E.small = D.floor`, nil},
		{"int against float", `retrieve (E.name, D.dname) from E in Emps, D in Depts where E.age = D.budget`, nil},
		{"floats: -0.0, +0.0 and NaN", `retrieve (E.name, E.x, D.budget) from E in Emps, D in Depts where E.x = D.budget`, nil},
		{"a computed int key", `retrieve (E.name, D.dname) from E in Emps, D in Depts where E.age - 1 = D.floor`, nil},
		{"a build filter and $n", refJoin + ` and D.floor = $1`, []any{2}},
		{"a $n in the probe key", `retrieve (E.name, D.dname) from E in Emps, D in Depts where E.age + $1 = D.floor`, []any{-1}},
		{"$n keys past 2^53", `retrieve (E.name, D.dname) from E in Emps, D in Depts where E.age + $1 = D.floor + $1`, []any{int64(1 << 53)}},
		{"is with null identities", `retrieve (E.name, F.name) from E in Emps, F in Emps where E.dept is F.dept`, nil},
		{"is through a hop", `retrieve (E.name, D.dname) from E in Emps, D in Depts where E.boss.dept is D`, nil},
		{"targets all distinct", `retrieve (E.name, F.name) from E in Emps, F in Emps where E.boss.name = F.name and F.age > $1`, []any{0}},
		{"a hop key against a build filter", `retrieve (E.name, D.dname) from E in Emps, D in Depts where E.dept.floor = D.floor and D.budget > $1`, []any{2.0}},
	}
	for _, c := range cases {
		lit := c.literal()
		plan, err := db.Explain(lit)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "hash join") {
			t.Fatalf("%s: %s plans no hash join:\n%s", c.name, lit, plan)
		}
		want, err := extra.OracleRows(db, lit)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		nested, _, err := extra.BaselineQuery(db, lit, extra.NestedRescan)
		if err != nil {
			t.Fatalf("%s: nested-loop form: %v", c.name, err)
		}
		ways := map[string]func() (*extra.Result, error){
			"ad hoc": func() (*extra.Result, error) { return db.Query(lit) },
			"nested": nested,
		}
		if c.args != nil {
			ways["prepared"] = func() (*extra.Result, error) { return execPrepared(db, c.src, c.args...) }
		}
		for way, run := range ways {
			res, err := run()
			if err != nil {
				t.Fatalf("%s (%s): %v", c.name, way, err)
			}
			if err := extra.DiffRows(lit, extra.CanonRows(res), want); err != nil {
				t.Errorf("%s (%s): %v", c.name, way, err)
			}
		}
	}

	// by keys of shape V.r.a read their group through the memo, at the
	// first level and under another key.
	for _, q := range []string{
		`retrieve (f = E.dept.floor, n = count(E.name by E.dept.floor)) from E in Emps`,
		`retrieve (a = E.age, f = E.dept.floor, n = count(E.name by E.age, E.dept.floor)) from E in Emps`,
		`retrieve (f = E.boss.dept.floor, b = E.boss.small, n = count(E.name by E.boss.small)) from E in Emps`,
		`retrieve (d = D.dname, f = E.dept.floor, s = sum(E.small by D.dname, E.dept.floor)) from E in Emps, D in Depts where E.dept.dname = D.dname`,
	} {
		if err := extra.OracleCheck(db, q); err != nil {
			t.Error(err)
		}
	}

	// A write statement's read phase: the same replace, hash-joined and
	// (its join conjunct joined to an or) nested, on two copies.
	const replace = `replace E (age = E.age + D.floor) from E in Emps, D in Depts where %s and D.floor > 1`
	after := map[string]string{}
	for _, join := range []string{`E.dept.dname = D.dname`, `(E.dept.dname = D.dname or E.name = "none")`} {
		db := joinKeyDB(t)
		src := strings.Replace(replace, "%s", join, 1)
		if plan, err := db.Explain(strings.Replace(src, "replace E (age = E.age + D.floor)", "retrieve (E.name)", 1)); err != nil || strings.Contains(plan, "hash join") != (join[0] != '(') {
			t.Fatalf("%s: plan %v:\n%s", src, err, plan)
		}
		db.MustExec(src)
		after[join] = strings.Join(extra.CanonRows(db.MustQuery(`retrieve (E.name, E.age) from E in Emps`)), "\n")
		db.Close()
	}
	if len(after) != 2 || after[`E.dept.dname = D.dname`] != after[`(E.dept.dname = D.dname or E.name = "none")`] {
		t.Errorf("replace through the hash join and nested differ:\n%v", after)
	}
}

func joinKeyDB(t *testing.T) *extra.DB {
	t.Helper()
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(joinKeySchema)
	db.MustExec(joinKeyData)
	return db
}

// TestNegativeZeroKeys: -0.0 = 0.0, so a hash join, an index probe and a
// range probe must find -0.0 where they look for 0.0.
func TestNegativeZeroKeys(t *testing.T) {
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`
		define type X: ( x: float8 )
		define type Y: ( y: float8 )
		create Xs : { own X }
		create Ys : { own Y }
	`)
	if _, err := db.Insert("Xs", extra.Attrs{"x": math.Copysign(0, -1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("Ys", extra.Attrs{"y": 0.0}); err != nil {
		t.Fatal(err)
	}
	check := func(q string, want int, plan string) {
		t.Helper()
		if p, err := db.Explain(q); err != nil || !strings.Contains(p, plan) {
			t.Fatalf("%s: plan lacks %q (%v):\n%s", q, plan, err, p)
		}
		if res := db.MustQuery(q); len(res.Rows) != want {
			t.Errorf("%s: %d rows, want %d", q, len(res.Rows), want)
		}
		if err := extra.OracleCheck(db, q); err != nil {
			t.Error(err)
		}
	}
	check(`retrieve (A.x, B.y) from A in Xs, B in Ys where A.x = B.y`, 1, "hash join")
	check(`retrieve (A.x, B.y) from A in Xs, B in Ys where A.x = B.y or A.x = 12345.0`, 1, "scan Ys")
	db.MustExec(`define index xs_x on Xs (x)`)
	check(`retrieve (A.x) from A in Xs where A.x = 0.0`, 1, "index probe xs_x")
	check(`retrieve (A.x) from A in Xs where A.x >= 0.0 and A.x < 1.0`, 1, "index probe xs_x")
	check(`retrieve (A.x) from A in Xs where A.x > -1.0 and A.x <= 0.0`, 1, "index probe xs_x")
	check(`retrieve (A.x) from A in Xs where A.x = 0.0 or A.x = 7.0`, 1, "scan Xs")
}
