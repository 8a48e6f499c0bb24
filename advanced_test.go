package extra

import (
	"strings"
	"testing"
)

// TestRecursiveFunction: recursive derived data over the composite
// hierarchy (a function may name itself once its signature is visible).
func TestRecursiveFunction(t *testing.T) {
	db := mustOpen(t)
	loadNodes(t, db)
	res := db.MustQuery(`retrieve (s = Size(R)) from R in Roots`)
	if res.Rows[0][0].String() != "4" { // r, a, b, a1
		t.Fatalf("recursive size: %v", res)
	}
}

// TestDeepNestedMutation: append/delete/replace through a two-level
// composite path, and mutation through a database-variable root.
func TestDeepNestedMutation(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Task: ( tname: varchar, done: bool )
		define type Project: ( pname: varchar, tasks: { own ref Task } )
		define type Team: ( tname: varchar, projects: { own ref Project } )
		create Teams : { own Team }
		create Flagship : own ref Project
	`)
	db.MustExec(`append to Teams (tname = "core")`)
	db.MustExec(`append to T.projects (pname = "p1") from T in Teams`)
	db.MustExec(`append to P.tasks (tname = "t1", done = false) from P in Teams.projects`)
	db.MustExec(`append to P.tasks (tname = "t2", done = false) from P in Teams.projects`)

	res := db.MustQuery(`retrieve (K.tname) from K in Teams.projects.tasks`)
	if len(res.Rows) != 2 {
		t.Fatalf("deep scan: %v", res)
	}
	// Replace through the nested variable.
	db.MustExec(`replace K (done = true) from K in Teams.projects.tasks where K.tname = "t1"`)
	res = db.MustQuery(`retrieve (K.tname) from K in Teams.projects.tasks where K.done`)
	if names(res) != "t1" {
		t.Fatalf("deep replace: %v", res)
	}
	// Delete one task from the nested set; its sibling survives.
	db.MustExec(`delete K from K in Teams.projects.tasks where K.tname = "t1"`)
	res = db.MustQuery(`retrieve (K.tname) from K in Teams.projects.tasks`)
	if names(res) != "t2" {
		t.Fatalf("deep delete: %v", res)
	}
	// Database-variable-rooted composite: a singleton own ref Project.
	db.MustExec(`set Flagship = Project(pname = "solo")`)
	db.MustExec(`append to Flagship.tasks (tname = "s1", done = false)`)
	res = db.MustQuery(`retrieve (K.tname) from K in Flagship.tasks`)
	if names(res) != "s1" {
		t.Fatalf("var-rooted append: %v", res)
	}
	// The var owns the project: overwriting destroys it and its task.
	db.MustExec(`set Flagship = Project(pname = "next")`)
	res = db.MustQuery(`retrieve (n = count(Flagship.tasks))`)
	if res.Rows[0][0].String() != "0" {
		t.Fatalf("var overwrite did not destroy owned composite: %v", res)
	}
}

// TestGroupingMultipleKeys: grouped aggregates over two by-expressions,
// with several aggregates sharing the group.
func TestGroupingMultipleKeys(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Sale: ( region: varchar, year: int4, amt: int4 )
		create Sales : { own Sale }
	`)
	rows := []struct {
		r string
		y int
		a int
	}{
		{"east", 2024, 10}, {"east", 2024, 20}, {"east", 2025, 5},
		{"west", 2024, 7}, {"west", 2025, 8}, {"west", 2025, 9},
	}
	for _, r := range rows {
		db.MustExec(`append to Sales (region = "` + r.r + `", year = ` + itoa(r.y) + `, amt = ` + itoa(r.a) + `)`)
	}
	res := db.MustQuery(`
		retrieve (r = S.region, y = S.year,
		          total = sum(S.amt by S.region, S.year),
		          n = count(S.amt by S.region, S.year))
		from S in Sales`)
	if len(res.Rows) != 4 {
		t.Fatalf("group count: %v", res)
	}
	found := false
	for _, row := range res.Rows {
		if trimQ(row[0].String()) == "east" && row[1].String() == "2024" {
			found = true
			if row[2].String() != "30" || row[3].String() != "2" {
				t.Fatalf("east/2024 group: %v", row)
			}
		}
	}
	if !found {
		t.Fatal("east/2024 group missing")
	}
}

// TestSetFunctionReturnInPredicate: a retrieve-bodied function's set
// result participates in membership predicates.
func TestSetFunctionReturnInPredicate(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`
		define function SameFloor (E: Employee) returns { ref Employee } as
		  retrieve (X) from X in Employees where X.dept.floor = E.dept.floor
	`)
	// Who shares a floor with Ann (including Ann)?
	res := db.MustQuery(`retrieve (n = count(SameFloor(E))) from E in Employees where E.name = "Ann"`)
	if res.Rows[0][0].String() != "3" {
		t.Fatalf("SameFloor size: %v", res)
	}
	res = db.MustQuery(`
		retrieve (B.name) from A in Employees, B in Employees
		where A.name = "Ann" and B in SameFloor(A) and B.name != "Ann"`)
	if names(res) != "Cal,Dee" {
		t.Fatalf("membership in function result: %v", names(res))
	}
}

// TestCharVarcharInterop: fixed- and variable-length strings compare and
// concatenate across kinds (with blank-insensitive CHAR comparison).
func TestCharVarcharInterop(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Tag: ( code: char[6], label: varchar )
		create Tags : { own Tag }
		append to Tags (code = "ab", label = "ab")
	`)
	res := db.MustQuery(`retrieve (T.label) from T in Tags where T.code = T.label`)
	if len(res.Rows) != 1 {
		t.Fatalf("char/varchar equality: %v", res)
	}
	res = db.MustQuery(`retrieve (T.label) from T in Tags where T.code < "ac"`)
	if len(res.Rows) != 1 {
		t.Fatalf("char ordering with padding: %v", res)
	}
}

// TestIsNullOnOwnAttribute: is/isnot on unset ref attrs and predicates
// over partially null data.
func TestIsNullOnOwnAttribute(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Link: ( lname: varchar, next: ref Link )
		create Links : { own Link }
		append to Links (lname = "a")
		append to Links (lname = "b")
		replace L (next = M) from L in Links, M in Links where L.lname = "a" and M.lname = "b"
	`)
	res := db.MustQuery(`retrieve (L.lname) from L in Links where L.next isnot null`)
	if names(res) != "a" {
		t.Fatalf("isnot null: %v", res)
	}
	// Chains terminate in null: path through the null reads as null and
	// the predicate rejects.
	res = db.MustQuery(`retrieve (L.lname) from L in Links where L.next.next.lname = "x"`)
	if len(res.Rows) != 0 {
		t.Fatalf("null chain: %v", res)
	}
}

// TestResultStringFormatting pins the text table rendering the shell and
// examples rely on.
func TestResultStringFormatting(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type P0: ( a: int4, b: varchar )
		create Ps : { own P0 }
		append to Ps (a = 1, b = "xy")
	`)
	out := db.MustQuery(`retrieve (P.a, P.b) from P in Ps`).String()
	want := "a  b\n" +
		"-  ----\n" +
		"1  \"xy\"\n"
	if out != want {
		t.Fatalf("render mismatch:\n%q\nwant\n%q", out, want)
	}
	if !strings.Contains(db.MustQuery(`retrieve (n = null)`).String(), "null") {
		t.Fatal("null rendering")
	}
}

// TestDeclareFunction covers forward declarations: mutual recursion
// (tested elsewhere), calling an undefined declaration, signature
// mismatches on fill-in, and dump round-trips of declarations.
func TestDeclareFunction(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`declare function Ghost (E: Employee) returns int4`)
	if _, err := db.Query(`retrieve (Ghost(E)) from E in Employees`); err == nil ||
		!strings.Contains(err.Error(), "declared but not defined") {
		t.Fatalf("undefined declaration callable: %v", err)
	}
	// Fill-in with a mismatched signature is rejected.
	if _, err := db.Exec(`define function Ghost (E: Employee) returns varchar as ("x")`); err == nil {
		t.Fatal("mismatched fill-in accepted")
	}
	db.MustExec(`define function Ghost (E: Employee) returns int4 as (E.salary)`)
	res := db.MustQuery(`retrieve (Ghost(E)) from E in Employees where E.name = "Ann"`)
	if res.Rows[0][0].String() != "90" {
		t.Fatalf("filled-in function: %v", res)
	}
	// Re-defining a filled function is still an error.
	if _, err := db.Exec(`define function Ghost (E: Employee) returns int4 as (0)`); err == nil {
		t.Fatal("re-definition accepted")
	}
	// A never-defined declaration survives Dump/Load as a declaration.
	db.MustExec(`declare function Later (E: Employee) returns int4`)
	var buf strings.Builder
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "declare function Later") {
		t.Fatal("declaration missing from dump")
	}
	db2 := mustOpen(t)
	if err := db2.Load(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
}

// TestDataAbstraction reproduces §4.2.3: granting access to a schema
// type only through its functions and procedures makes it an abstract
// data type. The caller cannot read or update Employees directly, but a
// function computes over them and a definer-rights procedure updates
// them.
func TestDataAbstraction(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`
		define function Payroll () returns int4 as (sum(Employees.salary))
		define procedure Bonus (who: varchar, amount: int4) as
		  replace E (salary = E.salary + amount) from E in Employees where E.name = who
	`)
	if err := db.CreateUser("clerk"); err != nil {
		t.Fatal(err)
	}
	db.EnableAuthorization()
	if err := db.SetUser("clerk"); err != nil {
		t.Fatal(err)
	}
	// Direct access denied.
	if _, err := db.Query(`retrieve (E.salary) from E in Employees`); err == nil {
		t.Fatal("direct select allowed")
	}
	if _, err := db.Exec(`replace E (salary = 0) from E in Employees`); err == nil {
		t.Fatal("direct update allowed")
	}
	// Function access allowed: the abstraction boundary.
	res, err := db.Query(`retrieve (p = Payroll())`)
	if err != nil {
		t.Fatalf("function access denied: %v", err)
	}
	if res.Rows[0][0].String() != "305" {
		t.Fatalf("payroll: %v", res)
	}
	// Definer-rights procedure performs the update for the clerk.
	if _, err := db.Exec(`execute Bonus ("Ann", 10)`); err != nil {
		t.Fatalf("procedure denied: %v", err)
	}
	db.SetUser("dba")
	res = db.MustQuery(`retrieve (E.salary) from E in Employees where E.name = "Ann"`)
	if res.Rows[0][0].String() != "100" {
		t.Fatalf("bonus not applied: %v", res)
	}
}

// TestNestedOwnElementMutation: appending into a collection inside an
// own (identity-less) element addresses the element positionally.
func TestNestedOwnElementMutation(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Pocket: ( label: varchar, coins: { int4 } )
		define type Coat: ( cname: varchar, pockets: { own Pocket } )
		create Coats : { own Coat }
		append to Coats (cname = "parka")
		append to C.pockets (label = "left") from C in Coats
		append to C.pockets (label = "right") from C in Coats
	`)
	db.MustExec(`append to P.coins (5) from P in Coats.pockets where P.label = "left"`)
	db.MustExec(`append to P.coins (10) from P in Coats.pockets where P.label = "left"`)
	res := db.MustQuery(`retrieve (P.label, s = sum(P.coins)) from P in Coats.pockets where count(P.coins) > 0`)
	if len(res.Rows) != 1 || trimQ(res.Rows[0][0].String()) != "left" || res.Rows[0][1].String() != "15" {
		t.Fatalf("own-element nested append: %v", res)
	}
	// Replace mutates the right element in place.
	db.MustExec(`replace P (label = "LEFT") from P in Coats.pockets where P.label = "left"`)
	res = db.MustQuery(`retrieve (P.label) from P in Coats.pockets`)
	if names(res) != "LEFT,right" {
		t.Fatalf("own-element replace: %v", names(res))
	}
}

// TestEmptyAggregates: global aggregates over empty inputs produce one
// row (count 0, sum 0, avg/min/max null).
func TestEmptyAggregates(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type E0: ( v: int4 )
		create Es : { own E0 }
	`)
	res := db.MustQuery(`retrieve (n = count(X.v), s = sum(X.v), a = avg(X.v)) from X in Es`)
	if len(res.Rows) != 1 {
		t.Fatalf("empty aggregate rows: %v", res)
	}
	r := res.Rows[0]
	if r[0].String() != "0" || r[1].String() != "0" || r[2].String() != "null" {
		t.Fatalf("empty aggregate values: %v", r)
	}
	// Grouped aggregates over empty input produce no rows.
	res = db.MustQuery(`retrieve (g = X.v, n = count(X.v by X.v)) from X in Es`)
	if len(res.Rows) != 0 {
		t.Fatalf("empty grouped rows: %v", res)
	}
	// Set-argument aggregates over empty sets fold to the same defaults.
	res = db.MustQuery(`retrieve (n = count(Es), s = sum(Es.v))`)
	if res.Rows[0][0].String() != "0" || res.Rows[0][1].String() != "0" {
		t.Fatalf("empty set-arg aggregates: %v", res)
	}
}

// TestConsistencyAfterChurn: the fsck passes after a randomized sequence
// of inserts, nested appends, updates, deletes and dump/load.
func TestConsistencyAfterChurn(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	stmts := []string{
		`append to Employees (name = "X1", salary = 10)`,
		`append to E.kids (name = "kx", age = 3) from E in Employees where E.salary > 60`,
		`replace E (salary = E.salary + 7) from E in Employees where E.dept.floor = 2`,
		`delete K from K in Employees.kids where K.age > 8`,
		`append to Employees (name = "X2", salary = 95)`,
		`delete E2 from E2 in Employees where E2.salary < 20`,
		`replace E3 (name = E3.name + "!") from E3 in Employees where E3.salary > 90`,
	}
	for round := 0; round < 3; round++ {
		for _, s := range stmts {
			db.MustExec(s)
			if bad := db.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("after %q: %v", s, bad)
			}
		}
	}
	// And after a dump/load cycle.
	var buf strings.Builder
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t)
	if err := db2.Load(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if bad := db2.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("after load: %v", bad)
	}
	// Dump is a fixpoint: dumping the loaded database matches.
	var buf2 strings.Builder
	if err := db2.Dump(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("dump/load/dump is not a fixpoint")
	}
}

// TestByWithOver: the paper's two-level partitioning — group by one
// level (floor) while deduplicating the aggregated level (department) —
// in one aggregate.
func TestByWithOver(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	// Departments per floor, counting each department once even though
	// several employees share it: floor 2 has Toys (Ann, Dee) and Books
	// (Cal) = 2; floor 1 has Shoes = 1.
	res := db.MustQuery(`
		retrieve (f = E.dept.floor,
		          depts = count(E.dept.dname by E.dept.floor over E.dept.dname))
		from E in Employees`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res)
	}
	got := map[string]string{}
	for _, r := range res.Rows {
		got[r[0].String()] = r[1].String()
	}
	if got["2"] != "2" || got["1"] != "1" {
		t.Fatalf("by+over: %v", got)
	}
	// Without over, the same aggregate counts each employee's mention.
	res = db.MustQuery(`
		retrieve (f = E.dept.floor, mentions = count(E.dept.dname by E.dept.floor))
		from E in Employees`)
	got = map[string]string{}
	for _, r := range res.Rows {
		got[r[0].String()] = r[1].String()
	}
	if got["2"] != "3" || got["1"] != "1" {
		t.Fatalf("by without over: %v", got)
	}
}

// TestArraysOfOwnTuples: fixed arrays of embedded tuples as database
// variables, slot assignment, and paths through array elements.
func TestArraysOfOwnTuples(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Pt: ( x: int4, y: int4 )
		create Grid : [2] own Pt
	`)
	db.MustExec(`set Grid[1] = Pt(x = 1, y = 2)`)
	db.MustExec(`set Grid[2] = Pt(x = 3, y = 4)`)
	res := db.MustQuery(`retrieve (a = Grid[1].x, b = Grid[2].y)`)
	if res.Rows[0][0].String() != "1" || res.Rows[0][1].String() != "4" {
		t.Fatalf("grid: %v", res)
	}
	// Ranging over the array visits both points in order.
	res = db.MustQuery(`retrieve (P.x) from P in Grid`)
	if len(res.Rows) != 2 || res.Rows[0][0].String() != "1" {
		t.Fatalf("array range: %v", res)
	}
	// Whole-variable replacement.
	db.MustExec(`set Grid[1] = Pt(x = 9, y = 9)`)
	res = db.MustQuery(`retrieve (s = sum(Grid.x))`)
	if res.Rows[0][0].String() != "12" {
		t.Fatalf("after slot set: %v", res)
	}
}

// TestObjectProjection: projecting a range variable yields the object
// (display shows its value); into-materialization stores a reference.
func TestObjectProjection(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	res := db.MustQuery(`retrieve (E) from E in Employees where E.name = "Ann"`)
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].String(), `"Ann"`) {
		t.Fatalf("object projection: %v", res)
	}
}

// TestMiscStatementBehaviour: execute with no bindings, procedures whose
// bodies retrieve, drops of every variable kind, and functions returning
// embedded tuple values.
func TestMiscStatementBehaviour(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	// Execute with zero bindings is a no-op, not an error.
	db.MustExec(`
		define procedure Nop (D: Department) as
		  replace E (salary = 0) from E in Employees where E.dept is D
	`)
	db.MustExec(`execute Nop (D) from D in Departments where D.floor = 99`)
	res := db.MustQuery(`retrieve (n = count(E.name)) from E in Employees where E.salary = 0`)
	if res.Rows[0][0].String() != "0" {
		t.Fatalf("nop executed: %v", res)
	}
	// Drops of every variable kind.
	db.MustExec(`
		create RefSet : { ref Employee }
		create Single : ref Employee
		create Vals : { int4 }
		append to Vals (1)
	`)
	for _, v := range []string{"RefSet", "Single", "Vals"} {
		db.MustExec(`drop ` + v)
		if _, ok := db.Catalog().Var(v); ok {
			t.Fatalf("%s not dropped", v)
		}
	}
	// A function returning an embedded tuple value.
	db.MustExec(`
		define type Pair: ( lo: int4, hi: int4 )
		define function Range2 (E: Employee) returns Pair as (Pair(lo = E.age, hi = E.salary))
	`)
	res = db.MustQuery(`retrieve (p = Range2(E)) from E in Employees where E.name = "Ann"`)
	if !strings.Contains(res.Rows[0][0].String(), "lo=41") {
		t.Fatalf("tuple-returning function: %v", res)
	}
	if bad := db.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("fsck: %v", bad)
	}
}

// TestDeepCompositeChain: cascading destruction through a long own-ref
// chain.
func TestDeepCompositeChain(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Cell: ( v: int4, next: own ref Cell )
		create Chains : { own Cell }
	`)
	// Build a 60-deep chain via the bulk API.
	attrs := Attrs{"v": 60}
	for i := 59; i >= 1; i-- {
		attrs = Attrs{"v": i, "next": attrs}
	}
	if _, err := db.Insert("Chains", attrs); err != nil {
		t.Fatal(err)
	}
	res := db.MustQuery(`retrieve (c = count(Chains))`)
	if res.Rows[0][0].String() != "1" {
		t.Fatalf("chain head: %v", res)
	}
	// Walk a few links.
	res = db.MustQuery(`retrieve (C.next.next.next.v) from C in Chains`)
	if res.Rows[0][0].String() != "4" {
		t.Fatalf("chain walk: %v", res)
	}
	// Destroy the head; the whole chain must go.
	db.MustExec(`delete C from C in Chains`)
	if bad := db.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("fsck after cascade: %v", bad)
	}
	// All 60 objects are gone (nothing left to count but the check above
	// would have flagged orphans).
	res = db.MustQuery(`retrieve (c = count(Chains))`)
	if res.Rows[0][0].String() != "0" {
		t.Fatalf("chain survived: %v", res)
	}
}
