package algebra

import (
	"slices"
	"testing"

	"repro/internal/adt"
	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/excess/sema"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// fixture: Employees (big) and Departments (small) with an index on
// Employees.salary.
type fixture struct {
	cat     *catalog.Catalog
	session *sema.Session
}

type fakeStats map[string]int

func (f fakeStats) EstimateLen(name string) int { return f[name] }

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cat := catalog.New(adt.NewRegistry())
	dept := types.MustTupleType("Department", nil, []types.Attr{
		{Name: "dname", Comp: types.Component{Mode: types.Own, Type: types.Varchar}},
		{Name: "floor", Comp: types.Component{Mode: types.Own, Type: types.Int4}},
	})
	emp := types.MustTupleType("Employee", nil, []types.Attr{
		{Name: "name", Comp: types.Component{Mode: types.Own, Type: types.Varchar}},
		{Name: "salary", Comp: types.Component{Mode: types.Own, Type: types.Int4}},
		{Name: "dept", Comp: types.Component{Mode: types.RefTo, Type: dept}},
		{Name: "kids", Comp: types.Component{Mode: types.Own, Type: &types.Set{
			Elem: types.Component{Mode: types.OwnRef, Type: emptyPerson()}}}},
	})
	cat.DefineTuple(dept)
	cat.DefineTuple(emp)
	mkSet := func(tt *types.TupleType) types.Component {
		return types.Component{Mode: types.Own, Type: &types.Set{
			Elem: types.Component{Mode: types.Own, Type: tt}}}
	}
	cat.CreateVar("Employees", mkSet(emp))
	cat.CreateVar("Departments", mkSet(dept))
	cat.AddIndex(&catalog.Index{Name: "emp_sal", Extent: "Employees", Path: []string{"salary"}, Tree: storage.NewBTree()})
	return &fixture{cat: cat, session: sema.NewSession()}
}

func emptyPerson() *types.TupleType {
	return types.MustTupleType("KidP", nil, []types.Attr{
		{Name: "kname", Comp: types.Component{Mode: types.Own, Type: types.Varchar}},
	})
}

func (f *fixture) check(t *testing.T, src string) *sema.CheckedRetrieve {
	t.Helper()
	st, err := parse.One(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := sema.NewChecker(f.cat, f.session, nil)
	cq, err := ck.CheckRetrieve(st.(*ast.Retrieve))
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

func TestPushdown(t *testing.T) {
	f := newFixture(t)
	cq := f.check(t, `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > 10 and D.floor = 2 and E.dept is D`)
	stats := fakeStats{"Employees": 1000, "Departments": 10}
	p := Build(f.cat, stats, cq.Query)
	if len(p.Nodes) != 2 {
		t.Fatalf("nodes: %d", len(p.Nodes))
	}
	// Reordering: the is-join links the two extents, so Employees (1000)
	// goes first and Departments (10) is the hash join's build side.
	if p.Nodes[0].Var.Extent != "Employees" {
		t.Errorf("larger-first ordering: %s first", p.Nodes[0].Var.Extent)
	}
	if p.Nodes[1].Hash == nil {
		t.Errorf("Departments is not a hash join")
	}
	// Single-variable conjuncts sit on their own node; the join conjunct
	// lands on the later node.
	if len(p.Nodes[0].Filter) != 1 {
		t.Errorf("Employees filters: %d", len(p.Nodes[0].Filter))
	}
	if len(p.Nodes[1].Filter) != 2 {
		t.Errorf("Departments filters: %d", len(p.Nodes[1].Filter))
	}
	if len(p.Final) != 0 {
		t.Errorf("residual conjuncts: %d", len(p.Final))
	}

	// Without an equality conjunct to hash on, the extents order
	// cheapest-first and the later one is a nested rescan.
	cq = f.check(t, `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > D.floor`)
	p = Build(f.cat, stats, cq.Query)
	if p.Nodes[0].Var.Extent != "Departments" || p.Nodes[1].Hash != nil {
		t.Errorf("non-equi join: %s first, hash join %v", p.Nodes[0].Var.Extent, p.Nodes[1].Hash != nil)
	}

	// Equal estimates keep declaration order.
	cq = f.check(t, `retrieve (E.name, D.dname) from D in Departments, E in Employees where E.dept is D`)
	p = Build(f.cat, fakeStats{"Employees": 10, "Departments": 10}, cq.Query)
	if p.Nodes[0].Var.Extent != "Departments" || p.Nodes[1].Hash == nil {
		t.Errorf("equal estimates: %s first, hash join %v", p.Nodes[0].Var.Extent, p.Nodes[1].Hash != nil)
	}
}

// TestIndexSelection checks the method table end to end: which index a
// node probes, the operators EXPLAIN shows for it, and — by running the
// probe over emp_sal holding the salaries 0..199 — which salaries the
// merged bounds let through. Candidates rank across all of the node's
// indexes (emp_sal, emp_name): equality, then a two-sided range, then a
// one-sided range, filter order breaking ties.
func TestIndexSelection(t *testing.T) {
	f := newFixture(t)
	f.cat.AddIndex(&catalog.Index{Name: "emp_name", Extent: "Employees", Path: []string{"name"}, Tree: storage.NewBTree()})
	sal, _ := f.cat.Index("emp_sal")
	for s := int64(0); s < 200; s++ {
		k, _ := codec.EncodeKey(value.NewInt(s))
		sal.Tree.Insert(k, uint64(s))
	}
	const q = `retrieve (E.name) from E in Employees where `
	cases := []struct {
		where  string
		index  string // "" for a heap scan
		from   string // the probe's operators as EXPLAIN shows them
		lo, hi int64  // emp_sal probes: the salaries let through are [lo, hi)
	}{
		{`E.salary = 50`, "emp_sal", "=", 50, 51},
		{`E.salary > 50`, "emp_sal", ">", 51, 200},
		{`50 <= E.salary`, "emp_sal", ">=", 50, 200}, // mirrored: a lower bound
		{`E.salary != 50`, "", "", 0, 0},             // method table excludes !=
		{`E.dept.floor = 2`, "", "", 0, 0},           // indexes cover own data only
		// Two-sided ranges: one probe, whichever order the bounds come in.
		{`E.salary >= 10 and E.salary < 20`, "emp_sal", ">= <", 10, 20},
		{`E.salary < 20 and E.salary >= 10`, "emp_sal", ">= <", 10, 20},
		{`10 <= E.salary and 20 > E.salary`, "emp_sal", ">= <", 10, 20},
		{`E.salary > 10 and E.salary <= 20`, "emp_sal", "> <=", 11, 21},
		{`E.salary > 10 and E.salary < 20`, "emp_sal", "> <", 11, 20},
		{`E.salary >= 10 and E.salary <= 20`, "emp_sal", ">= <=", 10, 21},
		// The tightest bound on each side wins; at one key, the exclusive.
		{`E.salary > 5 and E.salary >= 15 and E.salary <= 30 and E.salary < 25`, "emp_sal", ">= <", 15, 25},
		{`E.salary >= 10 and E.salary > 10 and E.salary < 12`, "emp_sal", "> <", 11, 12},
		// Contradictory bounds probe an empty range.
		{`E.salary >= 100 and E.salary < 50`, "emp_sal", ">= <", 0, 0},
		{`E.salary > 7 and E.salary <= 7`, "emp_sal", "> <=", 0, 0},
		// An equality inside the range wins; one outside it empties it.
		{`E.salary = 5 and E.salary < 9`, "emp_sal", "=", 5, 6},
		{`E.salary < 9 and E.salary = 5`, "emp_sal", "=", 5, 6},
		{`E.salary = 5 and E.salary > 5`, "emp_sal", "> =", 0, 0},
		// Ranking across indexes.
		{`E.salary > 10 and E.name = "x"`, "emp_name", "=", 0, 0},
		{`E.salary >= 10 and E.salary < 20 and E.name = "x"`, "emp_name", "=", 0, 0},
		{`E.name > "a" and E.salary >= 10 and E.salary < 20`, "emp_sal", ">= <", 10, 20},
		{`E.salary > 10 and E.name >= "a" and E.name < "m"`, "emp_name", ">= <", 0, 0},
		{`E.salary = 3 and E.name = "x"`, "emp_sal", "=", 3, 4},
		{`E.name > "a" and E.salary > 10`, "emp_name", ">", 0, 0},
		{`E.salary > 10 and E.name > "a"`, "emp_sal", ">", 11, 200},
	}
	for _, c := range cases {
		cq := f.check(t, q+c.where)
		p := Build(f.cat, nil, cq.Query)
		n := p.Nodes[0]
		if got := accessName(n.Access); got != c.index {
			t.Errorf("%s: probes %q, want %q", c.where, got, c.index)
			continue
		}
		if n.Access == nil {
			continue
		}
		if n.Access.FromPred != c.from {
			t.Errorf("%s: EXPLAIN shows [%s], want [%s]", c.where, n.Access.FromPred, c.from)
		}
		// Every conjunct must remain as a re-check filter.
		if conjs := splitConjuncts(cq.Query.Where); len(n.Filter) != len(conjs) {
			t.Errorf("%s: %d filters left for %d conjuncts", c.where, len(n.Filter), len(conjs))
		}
		if n.Access.Index != sal {
			continue
		}
		rng, ok := n.Access.ConstRange()
		if !ok {
			t.Errorf("%s: literal bounds did not fold to a range", c.where)
			continue
		}
		var got, want []int64
		sal.Tree.Range(rng.Lo, rng.Hi, rng.IncLo, rng.IncHi, func(_ []byte, v uint64) bool {
			got = append(got, int64(v))
			return true
		})
		for s := c.lo; s < c.hi; s++ {
			want = append(want, s)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: probe yields %v, want [%d, %d)", c.where, got, c.lo, c.hi)
		}
	}
}

func accessName(ap *AccessPath) string {
	if ap == nil {
		return ""
	}
	return ap.Index.Name
}

func TestNestedAfterParent(t *testing.T) {
	f := newFixture(t)
	cq := f.check(t, `retrieve (K.kname) from E in Employees, K in E.kids where E.salary > 10`)
	p := Build(f.cat, fakeStats{"Employees": 5}, cq.Query)
	if len(p.Nodes) != 2 || p.Nodes[0].Var.Name != "E" || p.Nodes[1].Var.Name != "K" {
		t.Fatalf("nested ordering: %s then %s", p.Nodes[0].Var.Name, p.Nodes[1].Var.Name)
	}
}

func TestUniversalSeparation(t *testing.T) {
	f := newFixture(t)
	f.session = f.session.With(&ast.RangeDecl{Var: "AE", All: true, Src: &ast.Path{Root: "Employees"}})
	cq := f.check(t, `retrieve (D.dname) from D in Departments where AE.salary > 10 and D.floor = 1`)
	p := Build(f.cat, nil, cq.Query)
	if len(p.Universal) != 1 || p.Universal[0].Name != "AE" {
		t.Fatalf("universal vars: %+v", p.Universal)
	}
	if len(p.ForAll) != 1 {
		t.Errorf("forall conjuncts: %d", len(p.ForAll))
	}
	// The existential conjunct is still pushed to the D node.
	if len(p.Nodes) != 1 || len(p.Nodes[0].Filter) != 1 {
		t.Error("existential conjunct misplaced")
	}
}

func TestConstantPredicate(t *testing.T) {
	f := newFixture(t)
	cq := f.check(t, `retrieve (E.name) from E in Employees where 1 = 2`)
	p := Build(f.cat, nil, cq.Query)
	if len(p.Final) != 1 {
		t.Errorf("constant predicate should be residual: %d", len(p.Final))
	}
}

func TestConstantFoldedIndexBound(t *testing.T) {
	f := newFixture(t)
	// An ADT constructor with literal arguments folds to an index bound.
	f.cat.AddIndex(&catalog.Index{Name: "emp_day", Extent: "Employees", Path: []string{"salary"}, Tree: storage.NewBTree()})
	cq := f.check(t, `retrieve (E.name) from E in Employees where E.salary = year(date("04/01/1987"))`)
	p := Build(f.cat, nil, cq.Query)
	if p.Nodes[0].Access == nil {
		t.Fatal("folded ADT constant did not select the index")
	}
}
