package parse

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/excess/ast"
	"repro/internal/excess/scan"
)

func one(t *testing.T, src string) ast.Statement {
	t.Helper()
	st, err := One(src, adt.NewRegistry())
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return st
}

func expr(t *testing.T, src string) ast.Expr {
	t.Helper()
	st := one(t, "retrieve (x = "+src+")")
	return st.(*ast.Retrieve).Targets[0].Expr
}

func parseErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := One(src, adt.NewRegistry())
	if err == nil {
		t.Fatalf("parse %q: expected error", src)
	}
	if want != "" && !strings.Contains(err.Error(), want) {
		t.Fatalf("parse %q: error %q does not mention %q", src, err, want)
	}
}

func TestDefineType(t *testing.T) {
	st := one(t, `define type Person: ( name: char[20], kids: { own ref Person }, vals: [3] int4, more: [] float8, d: ref Dept )`)
	d := st.(*ast.DefineType)
	if d.Name != "Person" || len(d.Attrs) != 5 {
		t.Fatalf("%+v", d)
	}
	if nt := d.Attrs[0].Comp.Type.(*ast.NamedType); nt.Name != "char" || nt.Width != 20 {
		t.Error("char width")
	}
	set := d.Attrs[1].Comp.Type.(*ast.SetType)
	if set.Elem.Mode != "own ref" {
		t.Errorf("kids mode %q", set.Elem.Mode)
	}
	arr := d.Attrs[2].Comp.Type.(*ast.ArrayType)
	if !arr.Fixed || arr.Len != 3 {
		t.Error("fixed array")
	}
	va := d.Attrs[3].Comp.Type.(*ast.ArrayType)
	if va.Fixed {
		t.Error("variable array parsed as fixed")
	}
	if d.Attrs[4].Comp.Mode != "ref" {
		t.Errorf("ref attr mode %q", d.Attrs[4].Comp.Mode)
	}
}

func TestDefineTypeInherits(t *testing.T) {
	st := one(t, `define type SE inherits Employee, Student with dept renamed sdept and gpa renamed grade: ( h: int4 )`)
	d := st.(*ast.DefineType)
	if len(d.Inherits) != 2 {
		t.Fatal("inherits count")
	}
	if d.Inherits[0].Super != "Employee" || len(d.Inherits[0].Renames) != 0 {
		t.Error("first super")
	}
	rs := d.Inherits[1].Renames
	if len(rs) != 2 || rs[0].Old != "dept" || rs[0].New != "sdept" || rs[1].Old != "gpa" {
		t.Errorf("renames: %+v", rs)
	}
}

func TestCreateForms(t *testing.T) {
	cases := map[string]string{
		`create Employees : { own Employee }`: "own",
		`create Star : ref Employee`:          "ref",
		`create TopTen : [10] ref Employee`:   "own",
		`create Today : Date`:                 "own",
	}
	for src, mode := range cases {
		c := one(t, src).(*ast.Create)
		if c.Comp.Mode != mode && !(mode == "ref" && c.Comp.Mode == "ref") {
			t.Errorf("%s: mode %q", src, c.Comp.Mode)
		}
	}
}

func TestRangeDecl(t *testing.T) {
	d := one(t, `range of E is Employees`).(*ast.RangeDecl)
	if d.Var != "E" || d.All || d.Src.Root != "Employees" {
		t.Errorf("%+v", d)
	}
	d = one(t, `range of C is Employees.kids`).(*ast.RangeDecl)
	if len(d.Src.Steps) != 1 || d.Src.Steps[0].Name != "kids" {
		t.Error("path range")
	}
	d = one(t, `range of A is all Employees`).(*ast.RangeDecl)
	if !d.All {
		t.Error("universal range")
	}
}

func TestRetrieveForms(t *testing.T) {
	r := one(t, `retrieve (E.name, sal = E.salary) from E in Employees, D in Depts where E.salary > 10`).(*ast.Retrieve)
	if len(r.Targets) != 2 || r.Targets[0].Name != "" || r.Targets[1].Name != "sal" {
		t.Errorf("targets: %+v", r.Targets)
	}
	if len(r.From) != 2 || r.From[1].Var != "D" {
		t.Error("from clause")
	}
	if r.Where == nil {
		t.Error("where missing")
	}
	r = one(t, `retrieve into Res (x = 1)`).(*ast.Retrieve)
	if r.Into != "Res" {
		t.Error("into")
	}
}

func TestUpdateStatements(t *testing.T) {
	a := one(t, `append to Employees (name = "x", salary = 1)`).(*ast.Append)
	if a.To.Root != "Employees" || len(a.Fields) != 2 || a.Value != nil {
		t.Errorf("%+v", a)
	}
	a = one(t, `append Wanted (E) from E in Employees`).(*ast.Append)
	if a.Value == nil || a.Fields != nil {
		t.Error("positional append")
	}
	a = one(t, `append to E.kids (name = "k") from E in Employees where E.name = "A"`).(*ast.Append)
	if len(a.To.Steps) != 1 || a.Where == nil {
		t.Error("nested append")
	}
	d := one(t, `delete E where E.x = 1`).(*ast.Delete)
	if d.Var != "E" || d.Where == nil {
		t.Error("delete")
	}
	rp := one(t, `replace E (salary = E.salary + 1) where true`).(*ast.Replace)
	if len(rp.Fields) != 1 {
		t.Error("replace")
	}
	s := one(t, `set TopTen[1] = E from E in Employees`).(*ast.SetStmt)
	if s.LHS.Root != "TopTen" || s.LHS.RootIndex == nil {
		t.Error("set indexed")
	}
	e := one(t, `execute Raise (D, 5) from D in Depts where D.floor = 2`).(*ast.Execute)
	if e.Name != "Raise" || len(e.Args) != 2 {
		t.Error("execute")
	}
}

func TestDefineFunctionAndProcedure(t *testing.T) {
	f := one(t, `define function Wealth (P: Person) returns int4 as (P.salary * 2)`).(*ast.DefineFunction)
	if f.Name != "Wealth" || f.Late || len(f.Params) != 1 || f.Expr == nil {
		t.Errorf("%+v", f)
	}
	f = one(t, `define late function Area (S: Shape) returns int4 as (0)`).(*ast.DefineFunction)
	if !f.Late {
		t.Error("late flag")
	}
	f = one(t, `define function AllOf () returns { ref E } as retrieve (X) from X in Es`).(*ast.DefineFunction)
	if f.Query == nil {
		t.Error("retrieve body")
	}
	p := one(t, `define procedure P2 (a: int4) as replace E (x = a) where E.y = a; delete E where E.x = 0`).(*ast.DefineProcedure)
	if len(p.Body) != 2 {
		t.Errorf("procedure body: %d stmts", len(p.Body))
	}
}

func TestGrantRevoke(t *testing.T) {
	g := one(t, `grant select on Employees to carol, analysts`).(*ast.Grant)
	if g.Priv != "select" || g.On != "Employees" || len(g.To) != 2 {
		t.Errorf("%+v", g)
	}
	r := one(t, `revoke all on Employees from bob`).(*ast.Revoke)
	if r.Priv != "all" || len(r.From) != 1 {
		t.Errorf("%+v", r)
	}
	parseErr(t, `grant frobnicate on X to y`, "privilege")
}

func TestExprPrecedence(t *testing.T) {
	// a or b and c  ->  or(a, and(b,c))
	e := expr(t, "a or b and c").(*ast.Binary)
	if e.Op != "or" || e.R.(*ast.Binary).Op != "and" {
		t.Error("or/and precedence")
	}
	// 1 + 2 * 3  ->  +(1, *(2,3))
	e = expr(t, "1 + 2 * 3").(*ast.Binary)
	if e.Op != "+" || e.R.(*ast.Binary).Op != "*" {
		t.Error("arith precedence")
	}
	// comparison binds looser than +
	e = expr(t, "a + 1 > b").(*ast.Binary)
	if e.Op != ">" || e.L.(*ast.Binary).Op != "+" {
		t.Error("cmp precedence")
	}
	// not binds tighter than and
	e = expr(t, "not a and b").(*ast.Binary)
	if e.Op != "and" {
		t.Error("not/and")
	}
	if _, ok := e.L.(*ast.Unary); !ok {
		t.Error("not parse")
	}
	// union at additive level, intersect at multiplicative.
	e = expr(t, "a union b intersect c").(*ast.Binary)
	if e.Op != "union" || e.R.(*ast.Binary).Op != "intersect" {
		t.Error("set op precedence")
	}
	// Parentheses override.
	e = expr(t, "(1 + 2) * 3").(*ast.Binary)
	if e.Op != "*" {
		t.Error("paren grouping")
	}
}

func TestNegativeLiteralFolding(t *testing.T) {
	if il, ok := expr(t, "-5").(*ast.IntLit); !ok || il.V != -5 {
		t.Error("negative int folding")
	}
	if fl, ok := expr(t, "-2.5").(*ast.FloatLit); !ok || fl.V != -2.5 {
		t.Error("negative float folding")
	}
}

func TestPathsAndCalls(t *testing.T) {
	p := expr(t, "E.dept.floor").(*ast.Path)
	if p.Root != "E" || len(p.Steps) != 2 || p.Steps[1].Name != "floor" {
		t.Errorf("%+v", p)
	}
	p = expr(t, "TopTen[1].name").(*ast.Path)
	if p.RootIndex == nil || len(p.Steps) != 1 {
		t.Error("root index")
	}
	p = expr(t, "E.vals[2]").(*ast.Path)
	if p.Steps[0].Index == nil {
		t.Error("step index")
	}
	c := expr(t, "date(\"1/2/1990\")").(*ast.Call)
	if c.Name != "date" || len(c.Args) != 1 || c.Recv != nil {
		t.Error("free call")
	}
	c = expr(t, "a.b.Add(x)").(*ast.Call)
	if c.Name != "Add" || c.Recv == nil {
		t.Error("method call")
	}
	if recv := c.Recv.(*ast.Path); recv.Root != "a" || len(recv.Steps) != 1 {
		t.Error("method receiver")
	}
}

func TestAggregates(t *testing.T) {
	a := expr(t, "avg(E.salary by E.dept.floor)").(*ast.Aggregate)
	if a.Op != "avg" || len(a.By) != 1 || a.Over != nil {
		t.Errorf("%+v", a)
	}
	a = expr(t, "count(E.d over E.d.name)").(*ast.Aggregate)
	if a.Over == nil {
		t.Error("over clause")
	}
	a = expr(t, "sum(E.x by E.a, E.b over E.c)").(*ast.Aggregate)
	if len(a.By) != 2 || a.Over == nil {
		t.Error("by list with over")
	}
	// Plain count(x) stays a Call (sema converts it).
	if _, ok := expr(t, "count(E.kids)").(*ast.Call); !ok {
		t.Error("plain aggregate should parse as call")
	}
}

func TestTupleAndSetLiterals(t *testing.T) {
	tl := expr(t, `Person(name = "x", age = 3)`).(*ast.TupleLit)
	if tl.TypeName != "Person" || len(tl.Fields) != 2 {
		t.Errorf("%+v", tl)
	}
	sl := expr(t, "{1, 2, 3}").(*ast.SetLit)
	if len(sl.Elems) != 3 {
		t.Error("set literal")
	}
	if sl := expr(t, "{}").(*ast.SetLit); len(sl.Elems) != 0 {
		t.Error("empty set literal")
	}
}

func TestADTOperators(t *testing.T) {
	// The Complex "+" is registered in the default registry; a novel
	// symbol must resolve through the op table.
	reg := adt.NewRegistry()
	c, _ := reg.Lookup("Complex")
	_ = c
	mag := &adt.Func{Name: "Mag1", Params: nil, Result: nil}
	_ = mag
	st, err := One(`retrieve (x = a |+| b)`, reg)
	if err == nil {
		_ = st
		t.Error("unregistered operator accepted")
	}
}

func TestParseErrors(t *testing.T) {
	parseErr(t, `retrieve E.name`, "(")
	parseErr(t, `define type : ( )`, "identifier")
	parseErr(t, `create X { own Y }`, ":")
	parseErr(t, `replace E (x) where true`, "attr = expr")
	parseErr(t, `range E is X`, "of")
	parseErr(t, `bogus statement`, "statement")
	parseErr(t, `retrieve (a.b(c).d)`, "method")
	parseErr(t, `create X : [0] int4`, "length")
}

func TestMultipleStatements(t *testing.T) {
	ss, err := Statements(`
		range of E is Employees
		retrieve (E.name)
		delete E where E.x = 1; retrieve (1)
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 4 {
		t.Fatalf("got %d statements", len(ss))
	}
}

// TestFromTokensMatchesStatements: parsing a scanned token stream gives
// the statements, and the errors, that parsing its text does.
func TestFromTokensMatchesStatements(t *testing.T) {
	reg := adt.NewRegistry()
	for _, src := range []string{
		`retrieve (E.name) from E in Employees where E.salary = -5 and E.age > 3`,
		`range of E is Employees; retrieve (E.name)`,
		`retrieve E.name`,
		`retrieve (x = 99999999999999999999)`,
	} {
		want, werr := Statements(src, reg)
		toks, err := scan.All(src)
		if err != nil {
			t.Fatal(err)
		}
		got, gerr := FromTokens(toks, reg).All()
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Errorf("%s: error %v, want %v", src, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d statements, want %d", src, len(got), len(want))
		}
		for i := range got {
			if ast.Print(got[i]) != ast.Print(want[i]) {
				t.Errorf("%s: statement %d is %s, want %s", src, i, ast.Print(got[i]), ast.Print(want[i]))
			}
		}
	}
}

// TestFoldedLiteralStartsAtMinus: a negative literal folded into one
// node is positioned at its minus sign, not at its digits' token.
func TestFoldedLiteralStartsAtMinus(t *testing.T) {
	// expr parses "retrieve (x = " + src + ")": the minus is column 19.
	for src, col := range map[string]int{"x = -5": 19, "x = - 5": 19, "x = -(5)": 19, "x = - -2.5": 19} {
		b, ok := expr(t, src).(*ast.Binary)
		if !ok {
			t.Fatalf("%s: not a comparison", src)
		}
		if _, c := b.R.Pos(); c != col {
			t.Errorf("%s: literal at column %d, want %d", src, c, col)
		}
	}
}

// lookupText is the benchmark's point-read lookup: an ad-hoc indexed
// retrieve with a fresh integer literal.
const lookupText = `retrieve (E.name, E.age) from E in Employees where E.salary = 52817`

// BenchmarkParseStatement scans and parses the point-read lookup, the
// work a statement pays when no memo answers it.
func BenchmarkParseStatement(b *testing.B) {
	b.ReportAllocs()
	reg := adt.NewRegistry()
	for i := 0; i < b.N; i++ {
		if _, err := Statements(lookupText, reg); err != nil {
			b.Fatal(err)
		}
	}
}
