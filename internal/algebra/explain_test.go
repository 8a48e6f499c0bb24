package algebra

import (
	"strings"
	"testing"

	"repro/internal/excess/ast"
)

func TestExplainRendering(t *testing.T) {
	f := newFixture(t)
	cq := f.check(t, `retrieve (E.name) from E in Employees, D in Departments, K in E.kids where E.salary = 10 and E.dept is D`)
	p := Build(f.cat, fakeStats{"Employees": 100, "Departments": 5}, cq.Query, Options{})
	out := p.Explain()
	for _, want := range []string{
		// Employees, the larger extent, probes through its selected
		// index first; the is-join upgrades the later Departments node
		// to a hash join that builds on the smaller extent.
		"index probe emp_sal on Employees",
		"hash join Departments",
		"(build D via scan, probe E.dept)",
		"unnest E.kids binding K",
		"filter: (E.salary = 10)",
		"(E.dept is D)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}

	// With hash joins disabled the node reverts to the plain index probe.
	p = Build(f.cat, fakeStats{"Employees": 100, "Departments": 5}, cq.Query, Options{NoHashJoin: true})
	if out := p.Explain(); !strings.Contains(out, "index probe emp_sal on Employees") {
		t.Errorf("explain missing index probe with NoHashJoin:\n%s", out)
	}
}

func TestExplainUniversalAndResidual(t *testing.T) {
	f := newFixture(t)
	f.session = f.session.With(&ast.RangeDecl{Var: "AE", All: true, Src: &ast.Path{Root: "Employees"}})
	cq := f.check(t, `retrieve (D.dname) from D in Departments where AE.salary > 10 and 1 = 1`)
	p := Build(f.cat, nil, cq.Query, Options{})
	out := p.Explain()
	if !strings.Contains(out, "forall AE") || !strings.Contains(out, "must hold: (AE.salary > 10)") {
		t.Errorf("explain forall:\n%s", out)
	}
	if !strings.Contains(out, "residual: (1 = 1)") {
		t.Errorf("explain residual:\n%s", out)
	}
}

func TestExprStringForms(t *testing.T) {
	f := newFixture(t)
	cases := map[string]string{
		`retrieve (x = count(E.kids)) from E in Employees`:                       "count(E.kids)",
		`retrieve (x = avg(E.salary by E.dept over E.name)) from E in Employees`: "avg(E.salary by E.dept over E.name)",
		`retrieve (x = not (E.salary > 1)) from E in Employees`:                  "not (E.salary > 1)",
		`retrieve (x = {1, 2} union {3}) from E in Employees`:                    "({1, 2} union {3})",
		`retrieve (x = Employee(name = "a")) from E in Employees`:                "Employee(...)",
		`retrieve (x = avg(Employees.salary)) from E in Employees`:               "avg(Employees)",
		`retrieve (x = E.kids.kname) from E in Employees`:                        "E.kids.kname",
	}
	for src, want := range cases {
		cq := f.check(t, src)
		got := ExprString(cq.Targets[0].Expr)
		if !strings.Contains(got, strings.Split(want, "(")[0]) {
			t.Errorf("%s: ExprString = %q, want to contain %q", src, got, want)
		}
	}
}
