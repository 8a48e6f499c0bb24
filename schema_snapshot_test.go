package extra

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

// The schema and the grant table are snapshot contents: a snapshot
// carries the frozen catalog its data was written under, DDL edits a
// working catalog only writers see, and Commit publishes both with one
// atomic store. These tests pin that down from the reader's side and
// from the failing writer's.

// TestSchemaSnapshotPinnedTriple: a snapshot pinned before a define
// type, create, drop and revoke keeps the old (data, schema, grants)
// triple, and a statement bound to it checks, plans and runs against
// that triple after all four have published.
func TestSchemaSnapshotPinnedTriple(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	if err := db.CreateUser("bob"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`grant select on Employees to bob`)

	pinned := db.store.Snapshot()
	db.MustExec(`
		define type Gadget: ( n: int4 )
		create Gadgets : { own Gadget }
		drop Employees
		revoke select on Employees from bob
	`)

	cat := pinned.Catalog()
	if _, ok := cat.Var("Employees"); !ok {
		t.Error("pinned catalog lost Employees to a later drop")
	}
	if _, ok := cat.TupleType("Gadget"); ok {
		t.Error("pinned catalog sees a type defined after the pin")
	}
	if _, ok := cat.Var("Gadgets"); ok {
		t.Error("pinned catalog sees a variable created after the pin")
	}
	if got := cat.Auth().Grants("Employees"); strings.Join(got, ",") != "bob: select" {
		t.Errorf("pinned grants on Employees = %v, want [bob: select]", got)
	}
	now := db.Catalog()
	if _, ok := now.Var("Employees"); ok {
		t.Error("published catalog still has the dropped Employees")
	}
	if _, ok := now.Var("Gadgets"); !ok {
		t.Error("published catalog is missing Gadgets")
	}
	if now.Version() <= cat.Version() {
		t.Errorf("catalog version did not move: %d -> %d", cat.Version(), now.Version())
	}

	st, err := parse.One(`retrieve (E.name) from E in Employees where E.salary > 60`, db.reg)
	if err != nil {
		t.Fatal(err)
	}
	es := db.exec.NewState()
	defer es.Release()
	es.BindSnapshot(pinned)
	cq, err := sema.NewChecker(es.Catalog(), sema.NewSession(), nil).CheckRetrieve(st.(*ast.Retrieve))
	if err != nil {
		t.Fatalf("check against the pinned catalog: %v", err)
	}
	plan := es.Plan(cq.Query)
	res, err := es.RetrieveProgram(cq, plan, es.CompilePlan(cq, plan))
	if err != nil {
		t.Fatal(err)
	}
	if got := names(res); got != "Ann,Cal" {
		t.Errorf("pinned read = %q, want Ann,Cal", got)
	}
	if _, err := db.Query(`retrieve (E.name) from E in Employees`); err == nil {
		t.Error("a read pinned after the drop still finds Employees")
	}
}

// TestSchemaSnapshotReaderAcrossDDL runs the same four DDL statements
// while a reader is stopped in the middle of its scan. No statement
// waits for the other: the DDL publishes while the reader holds its
// snapshot, and the reader, which checked, authorized and planned
// against that snapshot's catalog, finishes with the rows of the old
// triple.
func TestSchemaSnapshotReaderAcrossDDL(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	entered, release := defineHold(t, db)
	if err := db.CreateUser("bob"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`grant select on Employees to bob`)
	db.EnableAuthorization()
	bob := db.NewSession()
	if err := bob.SetUser("bob"); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := bob.Query(`retrieve (E.name) from E in Employees where hold(E.age) > 0`)
		done <- outcome{res, err}
	}()
	<-entered

	ddl := make(chan error, 1)
	go func() {
		_, err := db.Exec(`
			define type Gadget: ( n: int4 )
			create Gadgets : { own Gadget }
			drop Employees
			revoke select on Employees from bob
		`)
		ddl <- err
	}()
	select {
	case err := <-ddl:
		if err != nil {
			t.Fatalf("DDL: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("DDL waited for a reader")
	}
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatalf("reader pinned before the DDL: %v", out.err)
	}
	got := strings.Split(names(out.res), ",")
	sort.Strings(got)
	if strings.Join(got, ",") != "Ann,Ben,Cal,Dee" {
		t.Errorf("reader pinned before the DDL returned %v", got)
	}
	if _, err := bob.Query(`retrieve (E.name) from E in Employees`); err == nil {
		t.Error("a read started after the drop and the revoke succeeded")
	}
}

// defineHold registers hold(int4) → int4, which returns its argument
// and, on its first call only, signals entered and waits for release:
// a statement calling it stops there, mid-scan, holding whatever it
// holds.
func defineHold(t *testing.T, db *DB) (entered, release chan struct{}) {
	t.Helper()
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	reg := db.Registry()
	if _, err := reg.Define("Gate"); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterFunc("Gate", &adt.Func{
		Name: "hold", Params: []types.Type{types.Int4}, Result: types.Int4,
		Impl: func(args []value.Value) (value.Value, error) {
			once.Do(func() { close(entered); <-release })
			return args[0], nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return entered, release
}

// TestSnapshotReadsPinNoPage pins the invariant the buffer pool's one
// LRU under one mutex relies on: a snapshot read touches no page. Every
// read shape of the repository benchmark's read path runs prepared and
// ad hoc — index probe, range scan and count, ref path, unnest, and a
// hash join with a by aggregate — and the pool counters do not move.
func TestSnapshotReadsPinNoPage(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`define index emp_name on Employees (name)`)
	prepared := []struct {
		src  string
		args []any
	}{
		{`retrieve (E.name, E.age) from E in Employees where E.salary = 90`, nil},
		{`retrieve (E.name, E.salary, E.age) from E in Employees where E.name = "Ann"`, nil},
		{`retrieve (E.name, E.salary) from E in Employees where E.age >= $1 and E.age < $2`, []any{30, 40}},
		{`retrieve (n = count(E.name)) from E in Employees where E.age >= $1 and E.age < $2`, []any{30, 40}},
		{`retrieve (E.name) from E in Employees where E.dept.floor = $1`, []any{2}},
		{`retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < $1`, []any{10}},
		{`retrieve (d = D.dname, s = sum(E.salary by D.dname)) from E in Employees, D in Departments where E.dept.dname = D.dname and D.floor = $1`, []any{2}},
	}
	adhoc := []string{
		`retrieve (E.name, E.age) from E in Employees where E.salary = 50`,
		`retrieve (E.name, E.salary) from E in Employees where E.name = "Ben"`,
		`retrieve (E.name, E.salary) from E in Employees where E.age >= 30 and E.age < 40`,
		`retrieve (n = count(E.name)) from E in Employees where E.age >= 30 and E.age < 40`,
		`retrieve (E.name) from E in Employees where E.dept.floor = 1`,
		`retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < 10`,
		`retrieve (d = D.dname, s = sum(E.salary by D.dname)) from E in Employees, D in Departments where E.dept.dname = D.dname and D.floor = 2`,
	}
	stmts := make([]*Stmt, len(prepared))
	for i, p := range prepared {
		st, err := db.Prepare(p.src)
		if err != nil {
			t.Fatalf("prepare %q: %v", p.src, err)
		}
		stmts[i] = st
	}
	before := db.PoolStats()
	for round := 0; round < 2; round++ { // a miss fills the plan cache, a hit reads it
		for i, st := range stmts {
			res, err := st.Exec(prepared[i].args...)
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("prepared %q: %d rows, %v", prepared[i].src, len(res.Rows), err)
			}
		}
		for _, q := range adhoc {
			if res := db.MustQuery(q); len(res.Rows) == 0 {
				t.Fatalf("ad hoc %q returned no rows", q)
			}
		}
	}
	if moved := db.PoolStats().Sub(before); moved.Hits != 0 || moved.Misses != 0 {
		t.Errorf("snapshot reads pinned pages: %+v", moved)
	}
}

// TestFailedDDLLeavesNoTrace: a DDL statement that fails publishes
// nothing — the store version, the catalog version and the dump are as
// they were.
func TestFailedDDLLeavesNoTrace(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	if err := db.CreateUser("bob"); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`define type Employee: ( x: int4 )`,
		`define type Bad inherits Nope: ( x: int4 )`,
		`define type Bad: ( x: nosuchtype )`,
		`define enum Department: ( a, b )`,
		`create Bad : { own NoSuchType }`,
		`create Employees : { own Employee }`,
		`create Bad : { own Employee } key (nosuch)`,
		`drop NoSuch`,
		`define function Bad (x: int4) returns int4 as (x + nosuch)`,
		`define function Bad (x: int4) returns varchar as (x + 1)`,
		`define procedure Bad (x: nosuchtype) as delete E from E in Employees`,
		`define index bad on Employees (nosuch)`,
		`define index bad on NoSuch (x)`,
		`grant select on Employees to bob, nobody`,
		`range of X is NoSuch`,
	} {
		ver, catVer := db.store.Snapshot().Version(), db.Catalog().Version()
		var before bytes.Buffer
		if err := db.Dump(&before); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(src); err == nil {
			t.Errorf("%s: succeeded", src)
			continue
		}
		if v := db.store.Snapshot().Version(); v != ver {
			t.Errorf("%s: store version %d -> %d", src, ver, v)
		}
		if v := db.Catalog().Version(); v != catVer {
			t.Errorf("%s: catalog version %d -> %d", src, catVer, v)
		}
		var after bytes.Buffer
		if err := db.Dump(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("%s: dump changed", src)
		}
		if got := db.Grants("Employees"); len(got) != 0 {
			t.Errorf("%s: grants on Employees = %v", src, got)
		}
	}
}
