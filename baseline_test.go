package extra

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/excess/sema"
)

// The optimizer has one code path; the baselines the benchmarks measure
// it against are made here, by editing a clone of its plan in test code
// and running the edited plan through its own compiled program.

// NaivePlan rewrites a plan into the naive one: the range variables in
// the order the statement declares them, every conjunct in the residual
// filter and every node a heap scan (no index probe, no hash join).
func NaivePlan(q sema.Query, p *algebra.Plan) {
	slices.SortStableFunc(p.Nodes, func(a, b algebra.Node) int {
		return slices.Index(q.Vars, a.Var) - slices.Index(q.Vars, b.Var)
	})
	var final []sema.Expr
	for i := range p.Nodes {
		final = append(final, p.Nodes[i].Filter...)
		p.Nodes[i] = algebra.Node{Var: p.Nodes[i].Var}
	}
	p.Final = append(final, p.Final...)
}

// NestedRescan rewrites every hash join of a plan into the nested
// rescan of its extent; the joining conjunct stays in the node's filter.
func NestedRescan(_ sema.Query, p *algebra.Plan) {
	for i := range p.Nodes {
		p.Nodes[i].Hash = nil
	}
}

// BaselineQuery plans the retrieve src against the published snapshot,
// applies edit to a clone of the plan and compiles it. It runs the
// edited plan once and fails unless its rows are those of the reference
// evaluator; run then executes it against the latest snapshot, and
// explain is its EXPLAIN.
func BaselineQuery(db *DB, src string, edit func(sema.Query, *algebra.Plan)) (run func() (*Result, error), explain string, err error) {
	st, err := parse.One(src, db.reg)
	if err != nil {
		return nil, "", err
	}
	r, ok := st.(*ast.Retrieve)
	if !ok {
		return nil, "", fmt.Errorf("baseline: %q is not a retrieve", src)
	}
	es := db.exec.NewState()
	es.BindSnapshot(db.store.Snapshot())
	cq, err := sema.NewChecker(es.Catalog(), db.def.sem.Load(), nil).CheckRetrieve(r)
	if err != nil {
		es.Release()
		return nil, "", err
	}
	plan := es.Plan(cq.Query).Clone()
	edit(cq.Query, plan)
	prog := es.CompilePlan(cq, plan)
	es.Release()
	run = func() (*Result, error) {
		es := db.exec.NewState()
		defer es.Release()
		es.BindSnapshot(db.store.Snapshot())
		return es.RetrieveProgram(cq, plan, prog)
	}
	res, err := run()
	if err != nil {
		return nil, "", err
	}
	want, err := OracleRows(db, src)
	if err != nil {
		return nil, "", err
	}
	if err := DiffRows(src, CanonRows(res), want); err != nil {
		return nil, "", err
	}
	return run, plan.Explain(), nil
}

// TestBaselinePlans pins the baselines' plans: the rewrites give the
// plans the optimizer's off switches gave before they were removed.
func TestBaselinePlans(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	for _, c := range []struct {
		src  string
		edit func(sema.Query, *algebra.Plan)
		want string
	}{
		{`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary < 1000 and E.dept is D and D.floor = 2`,
			NaivePlan, `-> scan Employees binding E
  -> scan Departments binding D
    residual: (E.salary < 1000)
    residual: (E.dept is D)
    residual: (D.floor = 2)
`},
		{`retrieve (D.dname, E.name) from D in Departments, E in Employees where E.dept is D and 2 > 1`,
			NaivePlan, `-> scan Departments binding D
  -> scan Employees binding E
    residual: (E.dept is D)
    residual: (2 > 1)
`},
		{`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D`,
			NestedRescan, `-> scan Employees binding E
  -> scan Departments binding D
     filter: (E.dept is D)
`},
	} {
		_, got, err := BaselineQuery(db, c.src, c.edit)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: baseline plan\n%s\nwant\n%s", c.src, got, c.want)
		}
	}
}
