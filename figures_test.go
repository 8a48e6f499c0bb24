package extra

import (
	"strings"
	"testing"

	"repro/internal/types"
)

// The figure tests reproduce the paper's worked examples (see DESIGN.md
// and EXPERIMENTS.md): each figure's DDL and queries must parse,
// type-check and execute with the semantics the paper describes.

// figure1Schema is the Person / Date schema of Figure 1, with the
// database variables Employees, StarEmployee, TopTen and Today.
const figure1Schema = `
	define type Person:
	  ( name: char[20],
	    ssnum: int4,
	    birthday: Date,
	    kids: { own ref Person } )
	define type Employee inherits Person:
	  ( salary: int4 )
	create Employees : { own Employee }
	create StarEmployee : ref Employee
	create TopTen : [10] ref Employee
	create Today : Date
`

// TestFigure1 reproduces Figure 1: schema-type definition with an ADT
// attribute, instance creation separated from type definition, and the
// paper's first retrieves over Today, StarEmployee and TopTen[1].
func TestFigure1(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(figure1Schema)

	db.MustExec(`set Today = date("12/07/1987")`)
	db.MustExec(`append to Employees (name = "Ann", ssnum = 1, salary = 90, birthday = date("01/15/1955"))`)
	db.MustExec(`append to Employees (name = "Ben", ssnum = 2, salary = 70, birthday = date("03/02/1960"))`)
	db.MustExec(`set StarEmployee = E from E in Employees where E.name = "Ann"`)
	db.MustExec(`set TopTen[1] = E from E in Employees where E.name = "Ann"`)
	db.MustExec(`set TopTen[2] = E from E in Employees where E.name = "Ben"`)

	res := db.MustQuery(`retrieve (Today)`)
	if got := res.Rows[0][0].String(); got != "12/07/1987" {
		t.Fatalf("retrieve (Today) = %s", got)
	}
	res = db.MustQuery(`retrieve (StarEmployee.name, StarEmployee.salary)`)
	if got := res.Rows[0][1].String(); got != "90" {
		t.Fatalf("StarEmployee.salary = %s", got)
	}
	res = db.MustQuery(`retrieve (TopTen[1].name, TopTen[1].salary)`)
	if got := strings.TrimSpace(trimQ(res.Rows[0][0].String())); got != "Ann" {
		t.Fatalf("TopTen[1].name = %q", got)
	}
	res = db.MustQuery(`retrieve (TopTen[2].name)`)
	if got := strings.TrimSpace(trimQ(res.Rows[0][0].String())); got != "Ben" {
		t.Fatalf("TopTen[2].name = %q", got)
	}
	// ADT member functions as derived attributes.
	res = db.MustQuery(`retrieve (y = year(StarEmployee.birthday))`)
	if got := res.Rows[0][0].String(); got != "1955" {
		t.Fatalf("year(birthday) = %s", got)
	}
	// Date subtraction (registered "-" operator).
	res = db.MustQuery(`retrieve (d = Today - StarEmployee.birthday)`)
	if got := res.Rows[0][0].String(); got != "12014" {
		t.Fatalf("Today - birthday = %s days", got)
	}
}

// TestFigure2 reproduces Figure 2: the Employee / Student / StudentEmp
// multiple-inheritance lattice, with attributes inherited along both
// paths and subsumption in queries.
func TestFigure2(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Person: ( name: varchar, age: int4 )
		define type Department: ( dname: varchar, floor: int4 )
		define type Employee inherits Person: ( salary: int4, dept: ref Department )
		define type Student inherits Person: ( gpa: float8 )
		define type StudentEmp inherits Employee, Student: ( hours: int4 )
		create People : { own Person }
		create StudentEmps : { own StudentEmp }
	`)
	cat := db.Catalog()
	se, ok := cat.TupleType("StudentEmp")
	if !ok {
		t.Fatal("StudentEmp not defined")
	}
	for _, attr := range []string{"name", "age", "salary", "dept", "gpa", "hours"} {
		if _, ok := se.Attr(attr); !ok {
			t.Fatalf("StudentEmp lacks inherited attribute %s", attr)
		}
	}
	if !se.IsSubtypeOf(mustType(t, db, "Person")) {
		t.Fatal("StudentEmp is not a subtype of Person")
	}
	// Diamond: Person is inherited along two paths without conflict.
	db.MustExec(`append to StudentEmps (name = "Pat", age = 22, salary = 10, gpa = 3.5, hours = 20)`)
	res := db.MustQuery(`retrieve (S.name, S.gpa, S.salary) from S in StudentEmps where S.hours < 40`)
	if len(res.Rows) != 1 {
		t.Fatalf("StudentEmp query: %v", res)
	}
}

// TestFigure3 reproduces Figure 3: an inheritance conflict (two dept
// attributes reaching StudentEmp from Employee and Student) is an error
// unless resolved by renaming — EXTRA provides no automatic resolution.
func TestFigure3(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Person: ( name: varchar )
		define type Department: ( dname: varchar )
		define type School: ( sname: varchar )
		define type Employee inherits Person: ( dept: ref Department )
		define type Student inherits Person: ( dept: ref School )
	`)
	// Unresolved conflict: rejected.
	_, err := db.Exec(`define type StudentEmp inherits Employee, Student: ( hours: int4 )`)
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflicting dept attributes accepted: %v", err)
	}
	// Resolved via renaming, as in the figure.
	db.MustExec(`
		define type StudentEmp inherits Employee, Student with dept renamed school_dept:
		  ( hours: int4 )
		create SEs : { own StudentEmp }
	`)
	se := mustType(t, db, "StudentEmp")
	if _, ok := se.Attr("dept"); !ok {
		t.Fatal("employee dept missing after rename")
	}
	if _, ok := se.Attr("school_dept"); !ok {
		t.Fatal("renamed student dept missing")
	}
	if se.Origin("school_dept") != "Student" {
		t.Fatalf("school_dept originates from %s", se.Origin("school_dept"))
	}
}

// TestFigure4 reproduces Figure 4: the three attribute semantics. An own
// kids set embeds values (copy semantics, destroyed with the parent); an
// own ref kids set gives the children identity but keeps exclusive
// ownership and cascading deletion (composite objects); a ref attribute
// shares an independent object.
func TestFigure4(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Child: ( cname: varchar, age: int4 )
		define type EmbedParent: ( pname: varchar, kids: { own Child } )
		define type CompParent: ( pname: varchar, kids: { own ref Child } )
		create EmbedParents : { own EmbedParent }
		create CompParents : { own CompParent }
	`)

	// own: embedded values, no identity elsewhere; deleted with parent.
	db.MustExec(`append to EmbedParents (pname = "e1")`)
	db.MustExec(`append to P.kids (cname = "a", age = 3) from P in EmbedParents`)
	res := db.MustQuery(`retrieve (K.cname) from K in EmbedParents.kids`)
	if len(res.Rows) != 1 {
		t.Fatalf("own kids: %v", res)
	}
	db.MustExec(`delete P from P in EmbedParents`)
	if n := db.MustQuery(`retrieve (count(EmbedParents))`); n.Rows[0][0].String() != "0" {
		t.Fatal("embed parent not deleted")
	}

	// own ref: children are objects, exclusively owned.
	db.MustExec(`append to CompParents (pname = "c1")`)
	db.MustExec(`append to CompParents (pname = "c2")`)
	db.MustExec(`append to P.kids (cname = "kid", age = 5) from P in CompParents where P.pname = "c1"`)

	// Exclusivity: the same child cannot join another parent's kids.
	_, err := db.Exec(`append to P.kids (K) from P in CompParents, K in CompParents.kids where P.pname = "c2"`)
	if err == nil || !strings.Contains(err.Error(), "own") {
		t.Fatalf("composite exclusivity not enforced: %v", err)
	}

	// Cascading delete destroys owned children.
	db.MustExec(`delete P from P in CompParents where P.pname = "c1"`)
	res = db.MustQuery(`retrieve (K.cname) from K in CompParents.kids`)
	if len(res.Rows) != 0 {
		t.Fatalf("owned children survived: %v", res)
	}
}

// companySchema is the running Employees/Departments example used by the
// retrieval figures.
const companySchema = `
	define type Department: ( dname: varchar, floor: int4 )
	define type Person: ( name: varchar, age: int4, kids: { own ref Person } )
	define type Employee inherits Person: ( salary: int4, dept: ref Department )
	create Departments : { own Department }
	create Employees : { own Employee }
`

func loadCompany(t *testing.T, db *DB) {
	t.Helper()
	db.MustExec(companySchema)
	db.MustExec(`
		append to Departments (dname = "Toys", floor = 2)
		append to Departments (dname = "Shoes", floor = 1)
		append to Departments (dname = "Books", floor = 2)
	`)
	type emp struct {
		name string
		age  int
		sal  int
		dept string
		kids []string
	}
	emps := []emp{
		{"Ann", 41, 90, "Toys", []string{"Amy", "Al"}},
		{"Ben", 33, 50, "Shoes", []string{"Bea"}},
		{"Cal", 55, 120, "Books", nil},
		{"Dee", 28, 45, "Toys", []string{"Dot"}},
	}
	for _, e := range emps {
		db.MustExec(`append to Employees (name = "` + e.name + `", age = ` + itoa(e.age) + `, salary = ` + itoa(e.sal) + `)`)
		db.MustExec(`replace E (dept = D) from E in Employees, D in Departments where E.name = "` + e.name + `" and D.dname = "` + e.dept + `"`)
		for i, k := range e.kids {
			db.MustExec(`append to E.kids (name = "` + k + `", age = ` + itoa(5+i) + `) from E in Employees where E.name = "` + e.name + `"`)
		}
	}
}

// TestFigure5 reproduces Figure 5: the retrieval examples — implicit
// joins through reference paths, queries over nested sets with from-in,
// the path syntax correlating extent mentions, and explicit joins.
func TestFigure5(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)

	// Implicit join: employees on the second floor.
	res := db.MustQuery(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	if got := names(res); got != "Ann,Cal,Dee" {
		t.Fatalf("implicit join: %s", got)
	}

	// Nested set with a path-correlated implicit variable: children of
	// second-floor employees (the paper's exact query).
	res = db.MustQuery(`retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2`)
	if got := names(res); got != "Al,Amy,Dot" {
		t.Fatalf("kids of 2nd floor: %s", got)
	}

	// The same query via a persistent path range declaration.
	db.MustExec(`range of C is Employees.kids`)
	res = db.MustQuery(`retrieve (C.name) where Employees.dept.floor = 2`)
	if got := names(res); got != "Al,Amy,Dot" {
		t.Fatalf("kids via range decl: %s", got)
	}

	// Explicit join between two extents.
	res = db.MustQuery(`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > 80 and D.floor = E.dept.floor`)
	if len(res.Rows) != 4 { // Ann->Toys,Books; Cal->Toys,Books
		t.Fatalf("explicit join: %v", res)
	}

	// is / isnot on references.
	res = db.MustQuery(`retrieve (A.name, B.name) from A in Employees, B in Employees where A.dept is B.dept and A.name != B.name`)
	if len(res.Rows) != 2 { // Ann-Dee and Dee-Ann share Toys
		t.Fatalf("is join: %v", res)
	}
}

// TestFigure6 reproduces Figure 6: aggregates with by/over partitioning,
// set-valued path aggregates, updates (append/delete/replace) and
// universal quantification.
func TestFigure6(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)

	// Whole-extent aggregate over a set-valued path.
	res := db.MustQuery(`retrieve (s = sum(Employees.salary))`)
	if res.Rows[0][0].String() != "305" {
		t.Fatalf("sum salaries: %v", res)
	}

	// Grouped aggregate: average salary by floor.
	res = db.MustQuery(`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`)
	if len(res.Rows) != 2 {
		t.Fatalf("avg by floor: %v", res)
	}

	// over: count distinct departments employing anyone (dedup by dname).
	res = db.MustQuery(`retrieve (n = count(E.dept.dname over E.dept.dname)) from E in Employees`)
	if res.Rows[0][0].String() != "3" {
		t.Fatalf("count over: %v", res)
	}

	// Set-argument aggregate per binding: kid counts.
	res = db.MustQuery(`retrieve (E.name, n = count(E.kids)) from E in Employees where count(E.kids) >= 1`)
	if len(res.Rows) != 3 {
		t.Fatalf("count kids: %v", res)
	}

	// Universal quantification: departments where every employee earns
	// more than 40 (all do except none — Shoes' Ben earns 50, Toys' Dee
	// 45; threshold 60 isolates Books).
	db.MustExec(`range of EV is all Employees`)
	res = db.MustQuery(`retrieve (D.dname) from D in Departments where EV.dept isnot D or EV.salary > 60`)
	if got := names(res); got != "Books" {
		t.Fatalf("universal quantification: %s", got)
	}

	// Updates: replace (raise), append, delete.
	db.MustExec(`replace E (salary = E.salary + 10) from E in Employees where E.dept.floor = 2`)
	res = db.MustQuery(`retrieve (E.salary) from E in Employees where E.name = "Ann"`)
	if res.Rows[0][0].String() != "100" {
		t.Fatalf("raise: %v", res)
	}
	// Salaries now: Ann 100, Ben 50, Cal 130, Dee 55 — two fall below 60.
	db.MustExec(`delete E from E in Employees where E.salary < 60`)
	res = db.MustQuery(`retrieve (n = count(Employees))`)
	if res.Rows[0][0].String() != "2" {
		t.Fatalf("delete low earners: %v", res)
	}
}

// TestFigure7 reproduces Figure 7: the Complex ADT as an E dbclass —
// member functions, the registered "+" operator as alternative
// invocation syntax, and the symmetric call form.
func TestFigure7(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type CnumPair: ( val1: Complex, val2: Complex )
		create Pairs : { own CnumPair }
	`)
	db.MustExec(`append to Pairs (val1 = complex(1.0, 2.0), val2 = complex(3.0, -1.0))`)

	// Operator syntax.
	res := db.MustQuery(`retrieve (s = P.val1 + P.val2) from P in Pairs`)
	if got := res.Rows[0][0].String(); got != "4+1i" {
		t.Fatalf("complex +: %s", got)
	}
	// Symmetric function-call syntax resolves to the same member.
	res = db.MustQuery(`retrieve (s = Add(P.val1, P.val2)) from P in Pairs`)
	if got := res.Rows[0][0].String(); got != "4+1i" {
		t.Fatalf("Add(a,b): %s", got)
	}
	// Method-call syntax.
	res = db.MustQuery(`retrieve (s = P.val1.Add(P.val2)) from P in Pairs`)
	if got := res.Rows[0][0].String(); got != "4+1i" {
		t.Fatalf("a.Add(b): %s", got)
	}
	// Multiplication and magnitude.
	res = db.MustQuery(`retrieve (m = Magnitude(P.val1 * P.val2)) from P in Pairs`)
	if got := res.Rows[0][0].String(); got != "7.0710678118654755" {
		t.Fatalf("magnitude: %s", got)
	}
}

// ---------------------------------------------------------------------------
// helpers

func mustOpen(t *testing.T) *DB {
	t.Helper()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		checkCanonical(t, db)
		requireSealed(t, db, "at cleanup")
		db.Close()
	})
	return db
}

func mustType(t *testing.T, db *DB, name string) *types.TupleType {
	t.Helper()
	tt, ok := db.Catalog().TupleType(name)
	if !ok {
		t.Fatalf("type %s not defined", name)
	}
	return tt
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func trimQ(s string) string { return strings.Trim(s, `"`) }

// names joins the first column of a result, sorted, comma-separated.
func names(res *Result) string {
	var out []string
	for _, r := range res.Rows {
		out = append(out, strings.TrimSpace(trimQ(r[0].String())))
	}
	sortStrings(out)
	return strings.Join(out, ",")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
