package extra

import (
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
