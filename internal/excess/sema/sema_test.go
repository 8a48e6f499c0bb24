package sema

import (
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/catalog"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/types"
)

// env builds a catalog with the running company schema.
func env(t *testing.T) (*catalog.Catalog, *Session) {
	t.Helper()
	cat := catalog.New(adt.NewRegistry())
	ddl := []string{
		`define type Department: ( dname: varchar, floor: int4 )`,
		`define type Person: ( name: varchar, age: int4, kids: { own ref Person } )`,
		`define type Employee inherits Person: ( salary: int4, dept: ref Department, vals: [3] int4 )`,
	}
	for _, src := range ddl {
		st, err := parse.One(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.DefineTupleFromAST(st.(*ast.DefineType)); err != nil {
			t.Fatal(err)
		}
	}
	mkSet := func(name, tn string, mode types.Mode) {
		tt, _ := cat.TupleType(tn)
		if _, err := cat.CreateVar(name, types.Component{Mode: types.Own, Type: &types.Set{
			Elem: types.Component{Mode: mode, Type: tt}}}); err != nil {
			t.Fatal(err)
		}
	}
	mkSet("Employees", "Employee", types.Own)
	mkSet("Departments", "Department", types.Own)
	emp, _ := cat.TupleType("Employee")
	cat.CreateVar("Star", types.Component{Mode: types.RefTo, Type: emp})
	cat.CreateVar("TopTen", types.Component{Mode: types.Own, Type: &types.Array{
		Elem: types.Component{Mode: types.RefTo, Type: emp}, Len: 10, Fixed: true}})
	return cat, NewSession()
}

func checkRetrieve(t *testing.T, cat *catalog.Catalog, s *Session, src string) (*CheckedRetrieve, error) {
	t.Helper()
	st, err := parse.One(src, cat.ADTs())
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return NewChecker(cat, s, nil).CheckRetrieve(st.(*ast.Retrieve))
}

func wantErr(t *testing.T, cat *catalog.Catalog, s *Session, src, frag string) {
	t.Helper()
	_, err := checkRetrieve(t, cat, s, src)
	if err == nil {
		t.Fatalf("%q: expected error", src)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("%q: error %q does not mention %q", src, err, frag)
	}
}

func TestPathTyping(t *testing.T) {
	cat, s := env(t)
	cq, err := checkRetrieve(t, cat, s, `retrieve (E.dept.floor) from E in Employees`)
	if err != nil {
		t.Fatal(err)
	}
	if cq.Targets[0].Expr.Type().Kind() != types.KInt4 {
		t.Errorf("E.dept.floor : %s", cq.Targets[0].Expr.Type())
	}
	// Multi-valued path through a set.
	cq, err = checkRetrieve(t, cat, s, `retrieve (E.kids.name) from E in Employees`)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.Targets[0].Expr.Multi() {
		t.Error("kids.name not multi-valued")
	}
	if cq.Targets[0].Expr.Type().Kind() != types.KSet {
		t.Errorf("kids.name : %s", cq.Targets[0].Expr.Type())
	}
	// Inherited attribute through the lattice.
	if _, err := checkRetrieve(t, cat, s, `retrieve (E.name) from E in Employees`); err != nil {
		t.Errorf("inherited attribute: %v", err)
	}
}

func TestPathErrors(t *testing.T) {
	cat, s := env(t)
	wantErr(t, cat, s, `retrieve (E.bogus) from E in Employees`, "no attribute")
	wantErr(t, cat, s, `retrieve (X.name)`, "unknown name")
	wantErr(t, cat, s, `retrieve (E.name.length) from E in Employees`, "cannot access")
	wantErr(t, cat, s, `retrieve (E.name) from E in Star`, "not a collection")
	wantErr(t, cat, s, `retrieve (E.name[1]) from E in Employees`, "not an array")
}

func TestImplicitVariableSharing(t *testing.T) {
	cat, s := env(t)
	cq, err := checkRetrieve(t, cat, s, `retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2`)
	if err != nil {
		t.Fatal(err)
	}
	// One implicit var over Employees, plus C: two variables total.
	if len(cq.Vars) != 2 {
		t.Fatalf("vars: %d", len(cq.Vars))
	}
	var imp *Var
	for _, v := range cq.Vars {
		if v.Implicit {
			imp = v
		}
	}
	if imp == nil || imp.Extent != "Employees" {
		t.Fatal("implicit variable missing")
	}
	// C is nested under the implicit variable.
	for _, v := range cq.Vars {
		if v.Name == "C" && (v.Kind != VarNested || v.Parent != imp) {
			t.Error("C not nested under the implicit Employees variable")
		}
	}
}

func TestOperatorTyping(t *testing.T) {
	cat, s := env(t)
	cases := map[string]types.Kind{
		`retrieve (x = 1 + 2) from E in Employees`:                 types.KInt4,
		`retrieve (x = 1 + 2.5) from E in Employees`:               types.KFloat8,
		`retrieve (x = E.salary > 3) from E in Employees`:          types.KBool,
		`retrieve (x = "a" + "b") from E in Employees`:             types.KVarchar,
		`retrieve (x = {1} union {2}) from E in Employees`:         types.KSet,
		`retrieve (x = E.dept is null) from E in Employees`:        types.KBool,
		`retrieve (x = 1 in {1,2}) from E in Employees`:            types.KBool,
		`retrieve (x = count(E.kids)) from E in Employees`:         types.KInt4,
		`retrieve (x = avg(Employees.salary)) from E in Employees`: types.KFloat8,
	}
	for src, kind := range cases {
		cq, err := checkRetrieve(t, cat, s, src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if got := cq.Targets[0].Expr.Type().Kind(); got != kind {
			t.Errorf("%q : %v, want %v", src, got, kind)
		}
	}
}

func TestOperatorErrors(t *testing.T) {
	cat, s := env(t)
	wantErr(t, cat, s, `retrieve (x = E.dept = E.dept) from E in Employees`, "is / isnot")
	wantErr(t, cat, s, `retrieve (x = E.salary is E.salary) from E in Employees`, "objects and references")
	wantErr(t, cat, s, `retrieve (x = 1 + "a") from E in Employees`, "undefined")
	wantErr(t, cat, s, `retrieve (x = not E.salary) from E in Employees`, "boolean")
	wantErr(t, cat, s, `retrieve (x = 1 union 2) from E in Employees`, "sets")
	wantErr(t, cat, s, `retrieve (x = 1 in 2) from E in Employees`, "collection")
	wantErr(t, cat, s, `retrieve (E.name) from E in Employees where E.salary`, "boolean")
}

func TestAggregateRules(t *testing.T) {
	cat, s := env(t)
	// Grouped aggregates collect by-expressions.
	cq, err := checkRetrieve(t, cat, s, `retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.Aggregated || len(cq.GroupBy) != 1 {
		t.Error("grouping analysis")
	}
	// Non-aggregate target not in by-list: rejected.
	wantErr(t, cat, s, `retrieve (E.name, a = avg(E.salary by E.dept.floor)) from E in Employees`, "by")
	// Query-level aggregates in where: rejected.
	wantErr(t, cat, s, `retrieve (E.name) from E in Employees where avg(E.salary by E.dept) > 3`, "where")
	// Nested aggregates: rejected.
	wantErr(t, cat, s, `retrieve (x = sum(count(E.kids))) from E in Employees`, "nested")
	// by on a set-argument aggregate: rejected.
	wantErr(t, cat, s, `retrieve (x = count(E.kids by E.name)) from E in Employees`, "set-valued")
	// sum over strings: rejected.
	wantErr(t, cat, s, `retrieve (x = sum(Employees.name)) from E in Employees`, "numeric")
	// Unknown aggregate name.
	wantErr(t, cat, s, `retrieve (x = frobnicate(E.kids)) from E in Employees`, "unknown function")
}

func TestUniversalRules(t *testing.T) {
	cat, s := env(t)
	s = s.With(&ast.RangeDecl{Var: "AE", All: true, Src: &ast.Path{Root: "Employees"}})
	if _, err := checkRetrieve(t, cat, s, `retrieve (D.dname) from D in Departments where AE.salary > 10`); err != nil {
		t.Fatalf("universal use: %v", err)
	}
	wantErr(t, cat, s, `retrieve (AE.name)`, "universal")
}

func TestCheckUpdateStatements(t *testing.T) {
	cat, s := env(t)
	ck := func(src string) error {
		st, err := parse.One(src, cat.ADTs())
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		c := NewChecker(cat, s, nil)
		switch x := st.(type) {
		case *ast.Append:
			_, err = c.CheckAppend(x)
		case *ast.Delete:
			_, err = c.CheckDelete(x)
		case *ast.Replace:
			_, err = c.CheckReplace(x)
		case *ast.SetStmt:
			_, err = c.CheckSet(x)
		}
		return err
	}
	if err := ck(`append to Employees (name = "x", salary = 1)`); err != nil {
		t.Errorf("append: %v", err)
	}
	if err := ck(`append to Employees (bogus = 1)`); err == nil {
		t.Error("append with unknown attribute accepted")
	}
	if err := ck(`append to Employees (salary = "words")`); err == nil {
		t.Error("append with type mismatch accepted")
	}
	if err := ck(`append to Nowhere (x = 1)`); err == nil {
		t.Error("append to missing extent accepted")
	}
	if err := ck(`replace E (salary = E.salary + 1) from E in Employees`); err != nil {
		t.Errorf("replace: %v", err)
	}
	if err := ck(`replace E (bogus = 1) from E in Employees`); err == nil {
		t.Error("replace unknown attribute accepted")
	}
	if err := ck(`delete E from E in Employees`); err != nil {
		t.Errorf("delete: %v", err)
	}
	if err := ck(`delete Nobody`); err == nil {
		t.Error("delete of unknown variable accepted")
	}
	if err := ck(`set Star = E from E in Employees`); err != nil {
		t.Errorf("set: %v", err)
	}
	if err := ck(`set TopTen[1] = E from E in Employees`); err != nil {
		t.Errorf("set indexed: %v", err)
	}
	if err := ck(`set Star = 5`); err == nil {
		t.Error("set with type mismatch accepted")
	}
	if err := ck(`set Star.name = "x"`); err == nil {
		t.Error("set through attribute path accepted")
	}
}

func TestBuildFunctionValidation(t *testing.T) {
	cat, _ := env(t)
	build := func(src string) error {
		st, err := parse.One(src, cat.ADTs())
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		_, err = BuildFunction(cat, st.(*ast.DefineFunction))
		return err
	}
	if err := build(`define function F1 (E: Employee) returns int4 as (E.salary * 2)`); err != nil {
		t.Errorf("valid function: %v", err)
	}
	if err := build(`define function F2 (E: Employee) returns int4 as (E.name)`); err == nil {
		t.Error("return type mismatch accepted")
	}
	if err := build(`define function F3 (E: Employee) returns int4 as (E.bogus)`); err == nil {
		t.Error("body error accepted")
	}
	if err := build(`define function F4 (E: Employee, E: Employee) returns int4 as (1)`); err == nil {
		t.Error("duplicate parameter accepted")
	}
	if err := build(`define function F5 (E: Nowhere) returns int4 as (1)`); err == nil {
		t.Error("unknown parameter type accepted")
	}
}

func TestEqualExprGrouping(t *testing.T) {
	cat, s := env(t)
	cq, err := checkRetrieve(t, cat, s,
		`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor), c = count(E.age by E.dept.floor)) from E in Employees`)
	if err != nil {
		t.Fatal(err)
	}
	// Both by-lists mention the same expression: one group key.
	if len(cq.GroupBy) != 1 {
		t.Errorf("GroupBy merged to %d", len(cq.GroupBy))
	}
}

func TestMoreExprErrors(t *testing.T) {
	cat, s := env(t)
	// Unary ADT operator on wrong type.
	wantErr(t, cat, s, `retrieve (x = -"abc") from E in Employees`, "number")
	// ADT operator with mismatched operand types.
	wantErr(t, cat, s, `retrieve (x = complex(1.0, 2.0) + E.name) from E in Employees`, "undefined")
	// Root index on a non-array.
	wantErr(t, cat, s, `retrieve (Star[1].name)`, "not an array")
	// Non-integer array index.
	wantErr(t, cat, s, `retrieve (TopTen["x"].name)`, "integer")
	// Tuple constructor errors.
	wantErr(t, cat, s, `retrieve (x = Ghost(a = 1))`, "unknown")
	wantErr(t, cat, s, `retrieve (x = Employee(bogus = 1))`, "no attribute")
	wantErr(t, cat, s, `retrieve (x = Employee(name = "a", name = "b"))`, "twice")
	wantErr(t, cat, s, `retrieve (x = Employee(salary = "s"))`, "not assignable")
	// Method chaining after a call result is limited.
	wantErr(t, cat, s, `retrieve (x = E.salary.Add(1)) from E in Employees`, "")
}

func TestEnumConstants(t *testing.T) {
	cat, s := env(t)
	cat.DefineEnum(&types.Enum{Name: "Color", Labels: []string{"red", "green"}})
	cq, err := checkRetrieve(t, cat, s, `retrieve (x = red)`)
	if err != nil {
		t.Fatal(err)
	}
	if cq.Targets[0].Expr.Type().Kind() != types.KEnum {
		t.Error("enum constant type")
	}
	// An ambiguous label (declared by two enums) is not a constant.
	cat.DefineEnum(&types.Enum{Name: "Flag", Labels: []string{"red"}})
	wantErr(t, cat, s, `retrieve (x = red)`, "unknown name")
}

func TestRangeSourceForms(t *testing.T) {
	cat, s := env(t)
	// Ranging over a path rooted at a singleton reference variable works
	// (VarDBPath): Star.kids is a collection once Star is dereferenced.
	if _, err := checkRetrieve(t, cat, s, `retrieve (X.name) from X in Star.kids`); err != nil {
		t.Errorf("range over singleton path: %v", err)
	}
	// from over a non-collection path errors.
	wantErr(t, cat, s, `retrieve (X) from X in Star.salary`, "not a collection")
	// Duplicate from variables error.
	_, err := checkRetrieve(t, cat, s, `retrieve (E.name) from E in Employees, E in Departments`)
	if err == nil {
		t.Error("duplicate from variable accepted")
	}
}

func TestAppendChecks(t *testing.T) {
	cat, s := env(t)
	ck := func(src string) error {
		st, err := parse.One(src, cat.ADTs())
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		_, err = NewChecker(cat, s, nil).CheckAppend(st.(*ast.Append))
		return err
	}
	// Field-form append into a scalar set is rejected.
	cat.CreateVar("Nums", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: types.Int4}}})
	if err := ck(`append to Nums (v = 1)`); err == nil {
		t.Error("field form into scalar set accepted")
	}
	if err := ck(`append to Nums (1)`); err != nil {
		t.Errorf("positional scalar append: %v", err)
	}
	if err := ck(`append to Nums ("x")`); err == nil {
		t.Error("type-mismatched positional append accepted")
	}
	// Append through a non-collection path.
	if err := ck(`append to Star.salary (1)`); err == nil {
		t.Error("append into scalar path accepted")
	}
}
