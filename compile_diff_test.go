package extra

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestCompiledInterpretedCorpus is the expression compiler's
// differential oracle over the paper's figure corpus: every query runs
// once with closure-compiled expressions and once through the
// interpreting walker (NoCompiledExprs), and the rendered results must
// be byte-identical. The shapes cover constant folding, slot-indexed
// variable access, reference paths, array indexing, ADT calls,
// aggregates with by/over, nested sets, universal quantification and
// short-circuit logic.
func TestCompiledInterpretedCorpus(t *testing.T) {
	t.Run("company", func(t *testing.T) {
		db := mustOpen(t)
		loadCompany(t, db)
		db.MustExec(`define index emp_sal on Employees (salary)`)
		db.MustExec(`range of AE is all Employees`)
		db.MustExec(sameFloorFn)
		diffCorpus(t, db, []string{
			// Figure 5: implicit joins, nested sets, explicit joins.
			`retrieve (E.name, E.salary) from E in Employees where E.dept.floor = 2`,
			`retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2`,
			`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D and E.salary > 80`,
			`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > 80 and D.floor = E.dept.floor`,
			// Figure 6: aggregates with by/over partitioning.
			`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`,
			`retrieve (distinct_depts = count(E.dept.dname over E.dept.dname)) from E in Employees`,
			`retrieve (n = count(Employees))`,
			// Universal quantification (residue stays interpreter-shaped).
			`retrieve (D.dname) from D in Departments where AE.dept isnot D or AE.salary > 10`,
			// Constant folding: the parenthesized subexpression folds to a
			// literal at compile time; both paths must agree.
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
		})

		// Error parity: division by zero fails identically in both lanes.
		for _, opts := range []OptimizerOptions{{}, {NoCompiledExprs: true}} {
			db.SetOptimizer(opts)
			_, err := db.Query(`retrieve (E.name) from E in Employees where E.salary / (E.age - E.age) > 1`)
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("NoCompiledExprs=%v: division by zero = %v", opts.NoCompiledExprs, err)
			}
		}
		db.SetOptimizer(OptimizerOptions{})
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
		diffCorpus(t, db, []string{
			`retrieve (A.aname, A.advisee.name, A.advisee.gpa) from A in Advisors`,
			`retrieve (A.aname) from A in Advisors where A.advisee.gpa > 3.0`,
			`retrieve (A.aname, S.name, S.gpa) from A in Advisors, S in A.mentees`,
			`retrieve (A.aname, g = A.mentees.gpa) from A in Advisors`,
			`retrieve (A.aname, n = count(A.mentees)) from A in Advisors where A.advisee isnot null`,
			`retrieve (S.name, S.gpa, S.salary, S.dept.floor) from S in StudentEmps`,
		})
	})

	t.Run("function arguments", func(t *testing.T) {
		db := mustOpen(t)
		loadNodes(t, db)
		diffCorpus(t, db, []string{
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
		diffCorpus(t, db, []string{
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

// diffCorpus runs each query compiled and interpreted, comparing the
// rendered result tables byte for byte.
func diffCorpus(t *testing.T, db *DB, queries []string) {
	t.Helper()
	for _, q := range queries {
		db.SetOptimizer(OptimizerOptions{})
		compiled, err := db.Query(q)
		if err != nil {
			t.Fatalf("compiled %q: %v", q, err)
		}
		db.SetOptimizer(OptimizerOptions{NoCompiledExprs: true})
		interpreted, err := db.Query(q)
		if err != nil {
			t.Fatalf("interpreted %q: %v", q, err)
		}
		if got, want := compiled.String(), interpreted.String(); got != want {
			t.Errorf("compiled and interpreted results differ for %q:\n--- compiled ---\n%s\n--- interpreted ---\n%s", q, got, want)
		}
		db.SetOptimizer(OptimizerOptions{})
	}
}

// TestRangeOverIndexedArray ranges a variable over one element of an
// array of sets, with a literal and with a variable index: the walk
// applies the index to the array instead of fanning out over it, and
// the index expression sees the outer variable's binding. Both lanes
// must agree.
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
		for _, opts := range []OptimizerOptions{{}, {NoCompiledExprs: true}} {
			db.SetOptimizer(opts)
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("NoCompiledExprs=%v: %s: %v", opts.NoCompiledExprs, q, err)
			}
			var rows []string
			for _, r := range res.Rows {
				rows = append(rows, r[0].String()+" "+r[1].String())
			}
			if got := strings.Join(rows, ", "); got != `"a" "y", "a" "z"` {
				t.Errorf("NoCompiledExprs=%v: %s = %s", opts.NoCompiledExprs, q, got)
			}
		}
	}
	db.SetOptimizer(OptimizerOptions{})
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

// bothLanes runs fn once per expression lane, compiled and interpreted,
// each on a fresh database built by setup; fn gets the lane's options.
func bothLanes(t *testing.T, setup func(t *testing.T, db *DB), fn func(t *testing.T, db *DB, opts OptimizerOptions)) {
	for _, opts := range []OptimizerOptions{{}, {NoCompiledExprs: true}} {
		t.Run(fmt.Sprintf("NoCompiledExprs=%v", opts.NoCompiledExprs), func(t *testing.T) {
			db := mustOpen(t)
			setup(t, db)
			db.SetOptimizer(opts)
			fn(t, db, opts)
		})
	}
}

// wantRows runs q and compares its rows, each rendered as its cells
// joined by spaces (strings unquoted), sorted and joined by "; ".
func wantRows(t *testing.T, db *DB, q, want string) {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
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

// TestObjectVariablesReadWhole pins, with exact rows in both expression
// lanes, every place an object-valued range variable is read whole —
// boxed into a value.Object — instead of through an attribute step: a
// function body's bare target, membership, a ref assignment, a function
// argument, an identity key on either side of a hash join, a by key, a
// forall over an object extent and an unnest's parent. The lanes share
// the binding code, so a diff between them could not catch a bug there.
func TestObjectVariablesReadWhole(t *testing.T) {
	company := func(t *testing.T, db *DB) {
		loadCompany(t, db)
		db.MustExec(sameFloorFn)
		db.MustExec(`define index emp_sal on Employees (salary)`)
		db.MustExec(`range of EV is all Employees`)
		db.MustExec(`create Stars : { ref Employee }`)
		db.MustExec(`append to Stars (E) from E in Employees where E.salary > 80`)
	}
	bothLanes(t, company, func(t *testing.T, db *DB, opts OptimizerOptions) {
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
		// ...and the build key in the order written, D inner.
		inOrder := opts
		inOrder.NoReorder = true
		db.SetOptimizer(inOrder)
		if plan, err := db.Explain(join); err != nil || !strings.Contains(plan, "build D via scan") {
			t.Fatalf("expected D on the build side: %v\n%s", err, plan)
		}
		wantRows(t, db, join, "Ann Toys; Ben Shoes; Cal Books; Dee Toys")
		db.SetOptimizer(opts)
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
	})

	bothLanes(t, loadNodes, func(t *testing.T, db *DB, _ OptimizerOptions) {
		wantRows(t, db, `retrieve (R.label, s = Size(R)) from R in Roots`, "r 4")
		wantRows(t, db, `retrieve (C.label, s = Size(C)) from R in Roots, C in R.sub`, "a 2; b 1")
	})
}

// TestObjectBindingProvenance runs replace and delete over object
// variables bound by a scan, an index probe, an unnest and a ref-set
// extent, in both expression lanes, and pins the exact state each
// leaves: the update finds its object through the binding's provenance,
// which carries the object's identity beside its tuple.
func TestObjectBindingProvenance(t *testing.T) {
	setup := func(t *testing.T, db *DB) {
		loadCompany(t, db)
		db.MustExec(`define index emp_age on Employees (age)`)
		db.MustExec(`create Stars : { ref Employee }`)
		db.MustExec(`append to Stars (E) from E in Employees`)
	}
	bothLanes(t, setup, func(t *testing.T, db *DB, _ OptimizerOptions) {
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
	})
}
