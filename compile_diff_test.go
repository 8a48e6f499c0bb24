package extra

import (
	"sort"
	"strings"
	"testing"
)

// TestCompiledInterpretedCorpus checks the closure-compiled engine
// against the interpreting reference evaluator (oracle_test.go) over the
// paper's figure corpus: every query must return the oracle's rows as a
// multiset. The shapes cover constant folding, slot-indexed variable
// access, reference paths, array indexing, ADT calls, aggregates with
// by/over, nested sets, universal quantification and short-circuit
// logic. The oracle shares no execution code with the engine, so a bug
// in the path walk or the run loop shows here.
func TestCompiledInterpretedCorpus(t *testing.T) {
	t.Run("company", func(t *testing.T) {
		db := mustOpen(t)
		loadCompany(t, db)
		db.MustExec(`define index emp_sal on Employees (salary)`)
		db.MustExec(`range of AE is all Employees`)
		db.MustExec(sameFloorFn)
		oracleCorpus(t, db, []string{
			// Figure 5: implicit joins, nested sets, explicit joins.
			`retrieve (E.name, E.salary) from E in Employees where E.dept.floor = 2`,
			`retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2`,
			`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D and E.salary > 80`,
			`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > 80 and D.floor = E.dept.floor`,
			// Figure 6: aggregates with by/over partitioning.
			`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`,
			`retrieve (distinct_depts = count(E.dept.dname over E.dept.dname)) from E in Employees`,
			`retrieve (n = count(Employees))`,
			// Universal quantification.
			`retrieve (D.dname) from D in Departments where AE.dept isnot D or AE.salary > 10`,
			// Constant folding: the parenthesized subexpression folds to a
			// literal at compile time.
			`retrieve (E.name) from E in Employees where E.salary % 97 < ((13*17+5)*3 - 100) % 50 + 20`,
			`retrieve (E.name) from E in Employees where E.salary * 2 + 10 > 100 and (3 * 4 + 1) > 10`,
			// Arithmetic in targets, unary minus, string equality.
			`retrieve (E.name, double = E.salary * 2, neg = -E.age) from E in Employees`,
			`retrieve (E.name) from E in Employees where E.name = "Ann" or E.name = "Dee"`,
			// Nested-set aggregate in a predicate and null-path behavior.
			`retrieve (E.name) from E in Employees where count(E.kids) > 1`,
			`retrieve (E.name, E.dept.dname) from E in Employees`,
			// Three-valued logic: comparisons against null propagate.
			`retrieve (E.name) from E in Employees where not (E.salary < 0)`,
			// Integer division and mixed int/float promotion (the unboxed
			// integer lane must defer to the float kernel here).
			`retrieve (E.name, q = E.salary / 7 + E.age / 3) from E in Employees`,
			`retrieve (E.name) from E in Employees where E.salary / 2.0 > 40.0`,
			// Object variables read whole rather than through an attribute:
			// a function body's bare target, membership, a by key, an
			// index-probed variable, and an unnest under its parent.
			`retrieve (E.name, n = count(SameFloor(E))) from E in Employees`,
			`retrieve (B.name) from A in Employees, B in Employees where A.name = "Ben" and B in SameFloor(A)`,
			`retrieve (D, n = count(E.name by D)) from D in Departments, E in Employees where E.dept is D`,
			`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary = 50 and E.dept is D`,
			`retrieve (E.name, K.name, K.age) from E in Employees, K in E.kids`,
			// Membership, set operators over a multi-valued path and a
			// set constructor, string concatenation.
			`retrieve (E.name) from E in Employees where "Al" in E.kids.name`,
			`retrieve (E.name, u = E.kids.name union {"Zed", "Al"}, i = E.kids.name intersect {"Al", "Bea"}, d = E.kids.name diff {"Al"}) from E in Employees`,
			`retrieve (E.name, s = E.name + "!") from E in Employees where E.kids.name contains "Dot" or E.age > 40`,
		})

		// Error parity: division by zero fails in the engine and the oracle.
		q := `retrieve (E.name) from E in Employees where E.salary / (E.age - E.age) > 1`
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("engine: division by zero = %v", err)
		}
		if _, err := OracleRows(db, q); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("oracle: division by zero = %v", err)
		}
	})

	// Attribute steps read the field at its position in the static type
	// and fall back to the name when the runtime tuple has another type:
	// a ref Student reaching a StudentEmp (Figure 2's lattice) finds
	// Employee's salary at the position Student gives gpa. Dangling refs
	// read as null in a path and as absent in a ref set.
	t.Run("subtype through ref", func(t *testing.T) {
		db := mustOpen(t)
		db.MustExec(`
			define type Person: ( name: varchar, age: int4 )
			define type Department: ( dname: varchar, floor: int4 )
			define type Employee inherits Person: ( salary: int4, dept: ref Department )
			define type Student inherits Person: ( gpa: float8 )
			define type StudentEmp inherits Employee, Student: ( hours: int4 )
			define type Advisor: ( aname: varchar, advisee: ref Student, mentees: { ref Student } )
			create Departments : { own Department }
			create Students : { own Student }
			create StudentEmps : { own StudentEmp }
			create Advisors : { own Advisor }
		`)
		db.MustExec(`
			append to Departments (dname = "Toys", floor = 2)
			append to Students (name = "Sam", age = 20, gpa = 3.1)
			append to Students (name = "Gone", age = 30, gpa = 2.0)
			append to StudentEmps (name = "Pat", age = 22, salary = 10, dept = D, gpa = 3.5, hours = 20) from D in Departments
			append to Advisors (aname = "Ada", advisee = S) from S in StudentEmps where S.name = "Pat"
			append to Advisors (aname = "Bob", advisee = S) from S in Students where S.name = "Sam"
			append to Advisors (aname = "Cy", advisee = S) from S in Students where S.name = "Gone"
			append to A.mentees (S) from A in Advisors, S in StudentEmps where A.aname = "Bob"
			append to A.mentees (S) from A in Advisors, S in Students where A.aname = "Bob" or A.aname = "Cy"
			delete S from S in Students where S.name = "Gone"
		`)
		if got := db.MustQuery(`retrieve (A.advisee.gpa) from A in Advisors where A.aname = "Ada"`).String(); !strings.Contains(got, "3.5") {
			t.Fatalf("a ref Student reaching a StudentEmp read gpa as:\n%s", got)
		}
		oracleCorpus(t, db, []string{
			`retrieve (A.aname, A.advisee.name, A.advisee.gpa) from A in Advisors`,
			`retrieve (A.aname) from A in Advisors where A.advisee.gpa > 3.0`,
			`retrieve (A.aname, S.name, S.gpa) from A in Advisors, S in A.mentees`,
			`retrieve (A.aname, g = A.mentees.gpa) from A in Advisors`,
			`retrieve (A.aname, n = count(A.mentees)) from A in Advisors where A.advisee isnot null`,
			`retrieve (S.name, S.gpa, S.salary, S.dept.floor) from S in StudentEmps`,
		})
	})

	// The path kernel reads fields in one loop and dereferences refs in
	// it: the int lane through a dangling ref, a two-ref chain with a
	// dangling or nil hop, a subtype reached by ref (a StudentEmp's year
	// is read by name), and a range over a ref set filtered on an int
	// attribute. One department and one student are deleted; Dee has no
	// refs.
	t.Run("path kernel", func(t *testing.T) {
		db := mustOpen(t)
		db.MustExec(`
			define type Person: ( name: varchar, age: int4 )
			define type Department: ( dname: varchar, floor: int4 )
			define type Employee inherits Person: ( salary: int4, dept: ref Department )
			define type Student inherits Person: ( gpa: float8, year: int4 )
			define type StudentEmp inherits Employee, Student: ( hours: int4 )
			define type Advisor: ( aname: varchar, advisee: ref Student, boss: ref Employee, mentees: { ref Student } )
			create Departments : { own Department }
			create Employees : { own Employee }
			create Students : { own Student }
			create StudentEmps : { own StudentEmp }
			create Advisors : { own Advisor }
		`)
		db.MustExec(`
			append to Departments (dname = "Toys", floor = 2)
			append to Departments (dname = "Shoes", floor = 3)
			append to Employees (name = "Eve", age = 40, salary = 50, dept = D) from D in Departments where D.dname = "Toys"
			append to Employees (name = "Fay", age = 35, salary = 60, dept = D) from D in Departments where D.dname = "Shoes"
			append to Employees (name = "Gus", age = 50, salary = 70)
			append to StudentEmps (name = "Pat", age = 22, salary = 10, dept = D, gpa = 3.5, year = 4, hours = 20) from D in Departments where D.dname = "Toys"
			append to StudentEmps (name = "Quin", age = 9, salary = 5, dept = D, gpa = 2.5, year = 1, hours = 8) from D in Departments where D.dname = "Shoes"
			append to Students (name = "Sam", age = 20, gpa = 3.1, year = 2)
			append to Students (name = "Gone", age = 30, gpa = 2.0, year = 3)
			append to Advisors (aname = "Ada", advisee = S, boss = E) from S in StudentEmps, E in Employees where S.name = "Pat" and E.name = "Eve"
			append to Advisors (aname = "Bob", advisee = S, boss = E) from S in Students, E in Employees where S.name = "Sam" and E.name = "Fay"
			append to Advisors (aname = "Cy", advisee = S, boss = E) from S in Students, E in Employees where S.name = "Gone" and E.name = "Gus"
			append to Advisors (aname = "Dee")
			append to Advisors (aname = "Eli", advisee = S, boss = B) from S in StudentEmps, B in StudentEmps where S.name = "Quin" and B.name = "Pat"
			append to A.mentees (S) from A in Advisors, S in StudentEmps where A.aname = "Bob" or A.aname = "Eli"
			append to A.mentees (S) from A in Advisors, S in Students where A.aname = "Bob" or A.aname = "Cy"
			delete D from D in Departments where D.dname = "Shoes"
			delete S from S in Students where S.name = "Gone"
		`)
		oracleCorpus(t, db, []string{
			// Int-lane filters through a dangling or nil ref.
			`retrieve (A.aname) from A in Advisors where A.advisee.age > 10`,
			`retrieve (A.aname) from A in Advisors where not (A.advisee.age > 10)`,
			// A two-ref chain with a dangling or nil hop: as a target, in
			// an or filter, in arithmetic.
			`retrieve (A.aname, f = A.boss.dept.floor) from A in Advisors`,
			`retrieve (A.aname) from A in Advisors where A.boss.dept.floor = 2 or A.advisee.age < 21`,
			`retrieve (A.aname, x = A.boss.dept.floor * 10 + A.boss.age) from A in Advisors`,
			`retrieve (A.aname) from A in Advisors where A.boss.salary + A.advisee.age > 30`,
			// A subtype reached by ref, in the int lane: a StudentEmp's
			// year sits elsewhere than a Student's.
			`retrieve (A.aname, y = A.advisee.year) from A in Advisors where A.advisee.year > 1`,
			`retrieve (S.name) from S in StudentEmps where S.dept.floor = 2`,
			`retrieve (S.name, t = S.salary + S.hours) from S in StudentEmps where S.salary + S.hours > 10`,
			`retrieve (A.aname, h = A.boss.dept.floor) from A in Advisors where A.boss.salary < 20`,
			// A range over a ref set filtered on an int attribute.
			`retrieve (A.aname, S.name) from A in Advisors, S in A.mentees where S.age > 15`,
			`retrieve (A.aname, S.name, S.year) from A in Advisors, S in A.mentees where S.year + 1 > 2`,
			`retrieve (A.aname, S.name, S.age) from A in Advisors, S in A.mentees where S.age - 10 < A.advisee.age`,
		})
	})

	t.Run("function arguments", func(t *testing.T) {
		db := mustOpen(t)
		loadNodes(t, db)
		oracleCorpus(t, db, []string{
			`retrieve (R.label, s = Size(R)) from R in Roots`,
			`retrieve (C.label, s = Size(C)) from R in Roots, C in R.sub`,
		})
	})

	t.Run("figure1", func(t *testing.T) {
		db := mustOpen(t)
		db.MustExec(figure1Schema)
		db.MustExec(`set Today = date("12/07/1987")`)
		db.MustExec(`append to Employees (name = "Ann", ssnum = 1, salary = 90, birthday = date("01/15/1955"))`)
		db.MustExec(`append to Employees (name = "Ben", ssnum = 2, salary = 70, birthday = date("03/02/1960"))`)
		db.MustExec(`set StarEmployee = E from E in Employees where E.name = "Ann"`)
		db.MustExec(`set TopTen[1] = E from E in Employees where E.name = "Ann"`)
		db.MustExec(`set TopTen[2] = E from E in Employees where E.name = "Ben"`)
		oracleCorpus(t, db, []string{
			// Database-variable reads, array indexing, ADT values.
			`retrieve (Today)`,
			`retrieve (StarEmployee.name, StarEmployee.salary)`,
			`retrieve (TopTen[1].name, TopTen[1].salary)`,
			`retrieve (TopTen[2].name)`,
			// ADT member calls over attributes and constants.
			`retrieve (E.name) from E in Employees where month(E.birthday) = 1`,
			`retrieve (E.name, y = year(E.birthday)) from E in Employees where E.birthday < date("01/01/1958")`,
		})
	})
}

// oracleCorpus runs each query through the engine and the reference
// evaluator; both must succeed with the same rows.
func oracleCorpus(t *testing.T, db *DB, queries []string) {
	t.Helper()
	for _, q := range queries {
		want, err := OracleRows(db, q)
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("engine %q: %v", q, err)
		}
		if err := DiffRows(q, CanonRows(res), want); err != nil {
			t.Error(err)
		}
	}
}

// TestRangeOverIndexedArray ranges a variable over one element of an
// array of sets, with a literal and with a variable index: the walk
// applies the index to the array instead of fanning out over it, and
// the index expression sees the outer variable's binding. The engine
// and the oracle must return exactly these rows.
func TestRangeOverIndexedArray(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type G: ( name: varchar, i: int4, groups: [2] { own varchar } )
		create Gs : { own G }
	`)
	db.MustExec(`append to Gs (name = "a", i = 2, groups = {{"x"}, {"y", "z"}})`)
	want := db.MustQuery(`retrieve (n = T.groups[T.i]) from T in Gs`).String()
	if !strings.Contains(want, `{"y", "z"}`) {
		t.Fatalf("T.groups[T.i] = %s", want)
	}
	for _, q := range []string{
		`retrieve (T.name, X) from T in Gs, X in T.groups[2]`,
		`retrieve (T.name, X) from T in Gs, X in T.groups[T.i]`,
	} {
		oracleCorpus(t, db, []string{q})
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var rows []string
		for _, r := range res.Rows {
			rows = append(rows, r[0].String()+" "+r[1].String())
		}
		if got := strings.Join(rows, ", "); got != `"a" "y", "a" "z"` {
			t.Errorf("%s = %s", q, got)
		}
	}
}

// TestAppendThroughIndexedArray appends into one element of an array of
// sets, addressed by a literal index and by an index that reads the
// range variable: the index is resolved while the binding exists. A
// delete of the elements a variable index reaches goes through the same
// path.
func TestAppendThroughIndexedArray(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type G: ( name: varchar, i: int4, groups: [2] { own varchar } )
		create Gs : { own G }
	`)
	db.MustExec(`append to Gs (name = "a", i = 2, groups = {{"x"}, {"y", "z"}})`)
	db.MustExec(`append to Gs (name = "b", i = 1, groups = {{"p"}, {"q"}})`)
	all := `retrieve (T.name, T.groups) from T in Gs`
	db.MustExec(`append to T.groups[T.i] ("v") from T in Gs`)
	wantRows(t, db, all, `a [{"x"}, {"y", "z", "v"}]; b [{"p", "v"}, {"q"}]`)
	db.MustExec(`append to T.groups[2] ("w") from T in Gs where T.name = "b"`)
	wantRows(t, db, all, `a [{"x"}, {"y", "z", "v"}]; b [{"p", "v"}, {"q", "w"}]`)
	db.MustExec(`delete X from T in Gs, X in T.groups[T.i] where X = "v" or X = "y"`)
	wantRows(t, db, all, `a [{"x"}, {"z"}]; b [{"p"}, {"q", "w"}]`)
	wantRows(t, db, `retrieve (T.name, X) from T in Gs, X in T.groups[T.i]`, `a z; b p`)
}

// sameFloorFn is a retrieve-bodied function whose bare target X is an
// object read whole, coerced to a reference in the returned set.
const sameFloorFn = `
	define function SameFloor (E: Employee) returns { ref Employee } as
	  retrieve (X) from X in Employees where X.dept.floor = E.dept.floor
`

// loadNodes builds a three-level composite of own-ref Nodes (r; a and b
// under r; a1 under a) and the recursive Size function over it. The
// recursion is mutual, through a forward declaration: ChildSizes names
// Size before Size's body exists, and the later define fills the
// declaration in place.
func loadNodes(t *testing.T, db *DB) {
	t.Helper()
	db.MustExec(`
		define type Node: ( label: varchar, sub: { own ref Node } )
		create Roots : { own Node }
		append to Roots (label = "r")
		append to R.sub (label = "a") from R in Roots
		append to R.sub (label = "b") from R in Roots
		append to S.sub (label = "a1") from S in Roots.sub where S.label = "a"
		declare function Size (N: Node) returns int4
		define function ChildSizes (N: Node) returns { int4 } as
		  retrieve (Size(C)) from C in N.sub
		define function Size (N: Node) returns int4 as
		  (1 + sum(ChildSizes(N)))
	`)
}

// wantRows runs q and compares its rows, each rendered as its cells
// joined by spaces (strings unquoted), sorted and joined by "; ", and
// checks them against the reference evaluator.
func wantRows(t *testing.T, db *DB, q, want string) {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if oracle, err := OracleRows(db, q); err != nil {
		t.Errorf("oracle %s: %v", q, err)
	} else if err := DiffRows(q, CanonRows(res), oracle); err != nil {
		t.Error(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = strings.TrimSpace(trimQ(v.String()))
		}
		rows[i] = strings.Join(cells, " ")
	}
	sort.Strings(rows)
	if got := strings.Join(rows, "; "); got != want {
		t.Errorf("%s\n got: %s\nwant: %s", q, got, want)
	}
}

// TestObjectVariablesReadWhole pins, with exact rows, every place an
// object-valued range variable is read whole — boxed into a
// value.Object — instead of through an attribute step: a function
// body's bare target, membership, a ref assignment, a function argument,
// an identity key on either side of a hash join, a by key, a forall over
// an object extent and an unnest's parent.
func TestObjectVariablesReadWhole(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(sameFloorFn)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`range of EV is all Employees`)
	db.MustExec(`create Stars : { ref Employee }`)
	db.MustExec(`append to Stars (E) from E in Employees where E.salary > 80`)
	wantRows(t, db, `retrieve (E.name, n = count(SameFloor(E))) from E in Employees`,
		"Ann 3; Ben 1; Cal 3; Dee 3")
	wantRows(t, db, `retrieve (B.name) from A in Employees, B in Employees where A.name = "Ann" and B in SameFloor(A)`,
		"Ann; Cal; Dee")
	// D is the probe key of the hash join here, with E bound by an
	// index probe on the build side...
	join := `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D`
	wantRows(t, db, join, "Ann Toys; Ben Shoes; Cal Books; Dee Toys")
	probe := `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary = 50 and E.dept is D`
	if plan, err := db.Explain(probe); err != nil || !strings.Contains(plan, "index probe emp_sal") {
		t.Fatalf("expected an index probe for E: %v\n%s", err, plan)
	}
	wantRows(t, db, probe, "Ben Shoes")
	// ...and the build key, D inner.
	if plan, err := db.Explain(join); err != nil || !strings.Contains(plan, "build D via scan") {
		t.Fatalf("expected D on the build side: %v\n%s", err, plan)
	}
	wantRows(t, db, join, "Ann Toys; Ben Shoes; Cal Books; Dee Toys")
	wantRows(t, db, `retrieve (D, n = count(E.name by D)) from D in Departments, E in Employees where E.dept is D`,
		`Department(dname="Books", floor=2) 1; Department(dname="Shoes", floor=1) 1; Department(dname="Toys", floor=2) 2`)
	wantRows(t, db, `retrieve (D.dname) from D in Departments where EV.dept isnot D or EV.salary > 60`,
		"Books")
	wantRows(t, db, `retrieve (E.name, K.name, K.age) from E in Employees, K in E.kids`,
		"Ann Al 6; Ann Amy 5; Ben Bea 5; Dee Dot 5")
	wantRows(t, db, `retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2`,
		"Al; Amy; Dot")
	// Members of a ref-set extent bind as objects too.
	wantRows(t, db, `retrieve (S.name, S.dept.dname) from S in Stars`,
		"Ann Toys; Cal Books")
	wantRows(t, db, `retrieve (S.name) from S in Stars, E in Employees where S is E and E.age < 50`,
		"Ann")

	// A ref assignment stores the bound object's identity.
	db.MustExec(`append to Employees (name = "Eve", age = 30, salary = 60, dept = D) from D in Departments where D.dname = "Shoes"`)
	wantRows(t, db, `retrieve (E.name, E.dept.dname) from E in Employees where E.dept.floor = 1`,
		"Ben Shoes; Eve Shoes")
	db.MustExec(`replace E (dept = D) from E in Employees, D in Departments where E.name = "Eve" and D.dname = "Books"`)
	wantRows(t, db, `retrieve (E.name) from E in Employees, D in Departments where E.dept is D and D.dname = "Books"`,
		"Cal; Eve")

	db = mustOpen(t)
	loadNodes(t, db)
	wantRows(t, db, `retrieve (R.label, s = Size(R)) from R in Roots`, "r 4")
	wantRows(t, db, `retrieve (C.label, s = Size(C)) from R in Roots, C in R.sub`, "a 2; b 1")
}

// TestObjectBindingProvenance runs replace and delete over object
// variables bound by a scan, an index probe, an unnest and a ref-set
// extent, and pins the exact state each leaves: the update finds its
// object through the binding's provenance, which carries the object's
// identity beside its tuple.
func TestObjectBindingProvenance(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_age on Employees (age)`)
	db.MustExec(`create Stars : { ref Employee }`)
	db.MustExec(`append to Stars (E) from E in Employees`)
	for _, q := range []string{
		`retrieve (E.name) from E in Employees where E.age = 33`,
		`retrieve (E.name) from E in Employees where E.age = 28`,
	} {
		if plan, err := db.Explain(q); err != nil || !strings.Contains(plan, "index probe emp_age") {
			t.Fatalf("expected an index probe for %s: %v\n%s", q, err, plan)
		}
	}
	// Scan.
	db.MustExec(`replace E (salary = E.salary + 1) from E in Employees where E.salary > 80`)
	// Index probe.
	db.MustExec(`replace E (salary = 0) from E in Employees where E.age = 33`)
	// Unnest.
	db.MustExec(`replace K (age = K.age + 10) from E in Employees, K in E.kids where E.name = "Ann"`)
	db.MustExec(`delete K from E in Employees, K in E.kids where K.name = "Bea"`)
	// Ref-set extent: the membership goes, the object stays.
	db.MustExec(`delete S from S in Stars where S.name = "Cal"`)
	wantRows(t, db, `retrieve (S.name) from S in Stars`, "Ann; Ben; Dee")
	// Index probe, then scan: Dee and Cal go, with their kids.
	db.MustExec(`delete E from E in Employees where E.age = 28`)
	db.MustExec(`delete E from E in Employees where E.name = "Cal"`)

	wantRows(t, db, `retrieve (E.name, E.salary) from E in Employees`, "Ann 91; Ben 0")
	wantRows(t, db, `retrieve (E.name, K.name, K.age) from E in Employees, K in E.kids`,
		"Ann Al 16; Ann Amy 15")
	wantRows(t, db, `retrieve (S.name) from S in Stars`, "Ann; Ben")
	wantRows(t, db, `retrieve (n = count(Employees.kids))`, "2")
}
