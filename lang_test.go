package extra

import (
	"strings"
	"testing"
)

// TestEnums covers enumeration definition, literals and comparison.
func TestEnums(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define enum Color : ( red, green, blue )
		define type Car: ( model: varchar, paint: Color )
		create Cars : { own Car }
		append to Cars (model = "k1", paint = red)
		append to Cars (model = "k2", paint = blue)
	`)
	res := db.MustQuery(`retrieve (C.model) from C in Cars where C.paint = blue`)
	if names(res) != "k2" {
		t.Fatalf("enum equality: %v", res)
	}
	// Enums are ordered by declaration order.
	res = db.MustQuery(`retrieve (C.model) from C in Cars where C.paint < blue`)
	if names(res) != "k1" {
		t.Fatalf("enum ordering: %v", res)
	}
}

// TestFunctions covers EXCESS functions: expression bodies, derived
// attribute syntax, retrieve bodies returning sets, inheritance and late
// binding.
func TestFunctions(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)

	// Derived attribute: expression body.
	db.MustExec(`define function Wealth (P: Employee) returns int4 as (P.salary * 12)`)
	res := db.MustQuery(`retrieve (E.name, w = E.Wealth) from E in Employees where E.name = "Ann"`)
	if res.Rows[0][1].String() != "1080" {
		t.Fatalf("derived attribute: %v", res)
	}
	// Call syntax works too.
	res = db.MustQuery(`retrieve (w = Wealth(E)) from E in Employees where E.name = "Ann"`)
	if res.Rows[0][0].String() != "1080" {
		t.Fatalf("call syntax: %v", res)
	}

	// Retrieve-bodied function returning a set of references.
	db.MustExec(`
		define function FloorMates (D: Department) returns { ref Employee } as
		  retrieve (E) from E in Employees where E.dept.floor = D.floor
	`)
	res = db.MustQuery(`retrieve (n = count(FloorMates(D))) from D in Departments where D.dname = "Toys"`)
	if res.Rows[0][0].String() != "3" { // Ann, Cal, Dee on floor 2
		t.Fatalf("retrieve-bodied function: %v", res)
	}

	// Free function (no receiver).
	db.MustExec(`define function Payroll () returns int4 as (sum(Employees.salary))`)
	res = db.MustQuery(`retrieve (p = Payroll())`)
	if res.Rows[0][0].String() != "305" {
		t.Fatalf("free function: %v", res)
	}
}

// TestLateBinding covers early vs late (virtual) function dispatch down
// the lattice.
func TestLateBinding(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Shape: ( tag: varchar, s: int4 )
		define type Square inherits Shape: ( pad: int4 )
		create Shapes : { own Shape }
		create Squares : { own Square }
		define late function Area (X: Shape) returns int4 as (0)
		define late function Area (X: Square) returns int4 as (X.s * X.s)
		define function Kind (X: Shape) returns varchar as ("shape")
		define function Kind (X: Square) returns varchar as ("square")
	`)
	db.MustExec(`append to Squares (tag = "sq", s = 4, pad = 0)`)

	// Late binding: even through a Shape-typed view the Square version
	// runs (dynamic dispatch on runtime type).
	db.MustExec(`
		define type Holder: ( item: ref Shape )
		create H : Holder
	`)
	db.MustExec(`set H = Holder()`) // empty holder
	db.MustExec(`
		range of Q is Squares
		set H = Holder() where 1 = 2
	`)
	// Wire the holder's item to the square via replace-like set.
	db.MustExec(`define procedure SetItem (S: Square) as set H = Holder(item = S)`)
	db.MustExec(`execute SetItem (Q) from Q in Squares`)

	res := db.MustQuery(`retrieve (a = Area(H.item))`)
	if res.Rows[0][0].String() != "16" {
		t.Fatalf("late binding: %v", res)
	}
	// Early binding: the static type picks the Shape version.
	res = db.MustQuery(`retrieve (k = Kind(H.item))`)
	if trimQ(res.Rows[0][0].String()) != "shape" {
		t.Fatalf("early binding: %v", res)
	}
}

// TestProcedures covers stored commands with where-bound parameters —
// the body runs once per binding.
// TestProcedureBodyRefusesSchemaStatement: a schema statement after ";"
// in a procedure body is refused, defining and running nothing, where it
// used to end the body and run at once as the next statement. The form
// the error suggests, a procedure of its own executed from the body,
// stores both statements and runs them when the procedure runs.
func TestProcedureBodyRefusesSchemaStatement(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Item: ( name: varchar )
		create T : { own Item }
	`)
	_, err := db.Exec(`define procedure P () as append to T (name = "x"); drop T`)
	if err == nil || !strings.Contains(err.Error(), `drop after ";" in the body of procedure P`) {
		t.Fatalf("schema statement in a body: %v", err)
	}
	if _, err := db.Query(`retrieve (I.name) from I in T`); err != nil {
		t.Fatalf("the refused statement dropped T: %v", err)
	}
	if _, err := db.Exec(`execute P ()`); err == nil {
		t.Fatal("the refused statement defined P")
	}
	db.MustExec(`define procedure DropT () as drop T`)
	db.MustExec(`define procedure P () as append to T (name = "x"); execute DropT ()`)
	var dump strings.Builder
	if err := db.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	if want := `define procedure P () as append to T (name = "x"); execute DropT ()`; !strings.Contains(dump.String(), want) {
		t.Fatalf("printed-back body lacks %q:\n%s", want, dump.String())
	}
	db.MustExec(`execute P ()`)
	if _, err := db.Query(`retrieve (I.name) from I in T`); err == nil {
		t.Fatal("T survived execute P ()")
	}
}

func TestProcedures(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`
		define procedure Raise (D: Department, amount: int4) as
		  replace E (salary = E.salary + amount) from E in Employees where E.dept is D
	`)
	// Execute for all second-floor departments: every employee of Toys
	// and Books gets the raise.
	db.MustExec(`execute Raise (D, 5) from D in Departments where D.floor = 2`)
	res := db.MustQuery(`retrieve (E.salary) from E in Employees where E.name = "Cal"`)
	if res.Rows[0][0].String() != "125" {
		t.Fatalf("procedure raise: %v", res)
	}
	res = db.MustQuery(`retrieve (E.salary) from E in Employees where E.name = "Ben"`)
	if res.Rows[0][0].String() != "50" {
		t.Fatalf("procedure must not touch floor 1: %v", res)
	}
}

// TestRetrieveInto covers result materialization as a new extent.
func TestRetrieveInto(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`retrieve into WellPaid (who = E.name, sal = E.salary) from E in Employees where E.salary > 60`)
	res := db.MustQuery(`retrieve (W.who, W.sal) from W in WellPaid`)
	if got := names(res); got != "Ann,Cal" {
		t.Fatalf("into extent: %s", got)
	}
	// The synthesized type is in the catalog.
	if _, ok := db.Catalog().TupleType("WellPaid_t"); !ok {
		t.Fatal("result type not registered")
	}
	// Object columns materialize as references.
	db.MustExec(`retrieve into Stars (e = E) from E in Employees where E.salary > 100`)
	res = db.MustQuery(`retrieve (S.e.name) from S in Stars`)
	if names(res) != "Cal" {
		t.Fatalf("object column: %v", res)
	}
}

// TestSetsAndArrays covers set literals, membership, set operators and
// array semantics.
func TestSetsAndArrays(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Reading: ( site: varchar, vals: [3] int4, tags: { own varchar } )
		create Readings : { own Reading }
	`)
	db.MustExec(`append to Readings (site = "a", vals = {1, 2, 3}, tags = {"hot", "dry"})`)

	// NOTE: a set literal assigned to a fixed array adapts at storage.
	res := db.MustQuery(`retrieve (R.vals[2]) from R in Readings`)
	if res.Rows[0][0].String() != "2" {
		t.Fatalf("array index: %v", res)
	}
	res = db.MustQuery(`retrieve (R.site) from R in Readings where "hot" in R.tags`)
	if names(res) != "a" {
		t.Fatalf("membership: %v", res)
	}
	res = db.MustQuery(`retrieve (R.site) from R in Readings where R.tags contains "wet"`)
	if len(res.Rows) != 0 {
		t.Fatalf("contains: %v", res)
	}
	// Set operators.
	res = db.MustQuery(`retrieve (u = {1,2} union {2,3}, i = {1,2} intersect {2,3}, d = {1,2} diff {2,3})`)
	row := res.Rows[0]
	if row[0].String() != "{1, 2, 3}" || row[1].String() != "{2}" || row[2].String() != "{1}" {
		t.Fatalf("set operators: %v", row)
	}
}

// TestAuthorization covers the System R / IDM protection model: grants
// to users and groups, the all-users group, and owner rights.
func TestAuthorization(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	if err := db.CreateUser("carol"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateUser("mallory"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateGroup("analysts"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddToGroup("carol", "analysts"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`grant select on Employees to analysts`)
	db.EnableAuthorization()

	if err := db.SetUser("carol"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`retrieve (E.name) from E in Employees`); err != nil {
		t.Fatalf("granted select failed: %v", err)
	}
	if _, err := db.Exec(`replace E (salary = 0) from E in Employees`); err == nil {
		t.Fatal("update without grant allowed")
	}
	if err := db.SetUser("mallory"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`retrieve (E.name) from E in Employees`); err == nil {
		t.Fatal("ungranted select allowed")
	}
	// Grant to the all-users group opens it up.
	db.SetUser("dba")
	db.MustExec(`grant select on Employees to all_users`)
	db.SetUser("mallory")
	if _, err := db.Query(`retrieve (E.name) from E in Employees`); err != nil {
		t.Fatalf("all-users grant failed: %v", err)
	}
	// Revoke closes it again.
	db.SetUser("dba")
	db.MustExec(`revoke select on Employees from all_users`)
	db.SetUser("mallory")
	if _, err := db.Query(`retrieve (E.name) from E in Employees`); err == nil {
		t.Fatal("revoked select allowed")
	}
}

// TestRefSets covers top-level sets of references: membership is
// independent of object existence, and deleting from the set removes
// only the membership.
func TestRefSets(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`create Wanted : { ref Employee }`)
	db.MustExec(`append to Wanted (E) from E in Employees where E.salary > 60`)
	res := db.MustQuery(`retrieve (W.name) from W in Wanted`)
	if names(res) != "Ann,Cal" {
		t.Fatalf("ref set scan: %v", res)
	}
	// Deleting from the ref set leaves the employees alive.
	db.MustExec(`delete W from W in Wanted where W.name = "Ann"`)
	res = db.MustQuery(`retrieve (W.name) from W in Wanted`)
	if names(res) != "Cal" {
		t.Fatalf("ref set delete: %v", res)
	}
	res = db.MustQuery(`retrieve (n = count(Employees))`)
	if res.Rows[0][0].String() != "4" {
		t.Fatalf("employee destroyed via ref set: %v", res)
	}
	// Deleting the object makes the membership dangle (reads as absent).
	db.MustExec(`delete E from E in Employees where E.name = "Cal"`)
	res = db.MustQuery(`retrieve (W.name) from W in Wanted`)
	if len(res.Rows) != 0 {
		t.Fatalf("dangling membership visible: %v", res)
	}
}

// TestValueSets covers sets of plain values as database variables.
func TestValueSets(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		create Temps : { int4 }
		append to Temps (70)
		append to Temps (80)
		append to Temps (90)
	`)
	res := db.MustQuery(`retrieve (a = avg(Temps))`)
	if res.Rows[0][0].String() != "80" {
		t.Fatalf("avg over value set: %v", res)
	}
	res = db.MustQuery(`retrieve (T) from T in Temps where T > 75`)
	if len(res.Rows) != 2 {
		t.Fatalf("value set scan: %v", res)
	}
	db.MustExec(`delete T from T in Temps where T = 80`)
	res = db.MustQuery(`retrieve (n = count(Temps))`)
	if res.Rows[0][0].String() != "2" {
		t.Fatalf("value set delete: %v", res)
	}
}

// TestNullSemantics covers GEM-style nulls: predicates over null are
// false, is null tests work, and nulls are skipped by aggregates.
func TestNullSemantics(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`append to Employees (name = "NoDept", salary = 10)`) // dept is null
	res := db.MustQuery(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	if strings.Contains(names(res), "NoDept") {
		t.Fatalf("null path should not match: %v", res)
	}
	res = db.MustQuery(`retrieve (E.name) from E in Employees where E.dept is null`)
	if names(res) != "NoDept" {
		t.Fatalf("is null: %v", res)
	}
	res = db.MustQuery(`retrieve (E.name) from E in Employees where E.dept isnot null`)
	if len(res.Rows) != 4 {
		t.Fatalf("isnot null: %v", res)
	}
	// not(null comparison) is null too, not true.
	res = db.MustQuery(`retrieve (E.name) from E in Employees where not (E.dept.floor = 2)`)
	if strings.Contains(names(res), "NoDept") {
		t.Fatalf("not over null leaked: %v", res)
	}
}

// TestUniversalQuantification exercises "range of V is all S" in both
// satisfied and violated forms, including the empty-set edge.
func TestUniversalQuantification(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`range of AE is all Employees`)
	// Everyone earns more than 40.
	res := db.MustQuery(`retrieve (n = count(Departments)) where AE.salary > 40`)
	if res.Rows[0][0].String() != "3" {
		t.Fatalf("forall true: %v", res)
	}
	// Not everyone earns more than 100.
	res = db.MustQuery(`retrieve (D.dname) from D in Departments where AE.salary > 100`)
	if len(res.Rows) != 0 {
		t.Fatalf("forall false: %v", res)
	}
	// Universal over an empty extent is vacuously true.
	db.MustExec(`
		define type G: ( g: int4 )
		create Ghosts : { own G }
		range of GH is all Ghosts
	`)
	res = db.MustQuery(`retrieve (D.dname) from D in Departments where GH.g = 7`)
	if len(res.Rows) != 3 {
		t.Fatalf("vacuous forall: %v", res)
	}
	// Universal variables may not be retrieved.
	if _, err := db.Query(`retrieve (AE.name)`); err == nil {
		t.Fatal("retrieving a universal variable allowed")
	}
}

// TestMultiValuedPaths covers paths that traverse collections, flattening
// one level per set crossed.
func TestMultiValuedPaths(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	// E.kids.name is a multiset of names per employee.
	res := db.MustQuery(`retrieve (E.name, kn = E.kids.name) from E in Employees where E.name = "Ann"`)
	if !strings.Contains(res.Rows[0][1].String(), "Amy") {
		t.Fatalf("multi path: %v", res)
	}
	// Aggregate over a deep path: all kids of all employees.
	res = db.MustQuery(`retrieve (n = count(Employees.kids))`)
	if res.Rows[0][0].String() != "4" {
		t.Fatalf("deep count: %v", res)
	}
	res = db.MustQuery(`retrieve (a = avg(Employees.kids.age))`)
	if res.Rows[0][0].String() != "5.25" {
		t.Fatalf("deep avg: %v", res)
	}
}

// TestDropVariable covers drop semantics: objects owned by the extent
// are destroyed.
func TestDropVariable(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`create Keep : { ref Employee }`)
	db.MustExec(`append to Keep (E) from E in Employees`)
	db.MustExec(`drop Employees`)
	if _, err := db.Query(`retrieve (E.name) from E in Employees`); err == nil {
		t.Fatal("dropped extent still queryable")
	}
	// All memberships dangle now.
	res := db.MustQuery(`retrieve (K.name) from K in Keep`)
	if len(res.Rows) != 0 {
		t.Fatalf("refs to dropped objects: %v", res)
	}
}

// TestSetFunctionMedian covers generic user-defined set functions (the
// paper's "median for any totally ordered type" extension, which
// POSTGRES could not express generically).
func TestSetFunctionMedian(t *testing.T) {
	db := mustOpen(t)
	RegisterMedian(db.Registry())
	loadCompany(t, db)
	res := db.MustQuery(`retrieve (m = median(Employees.salary))`)
	if res.Rows[0][0].String() != "50" { // 45,50,90,120 -> lower median 50
		t.Fatalf("median over int: %v", res)
	}
	// The same function applies to strings (any ordered type).
	res = db.MustQuery(`retrieve (m = median(Employees.name))`)
	if trimQ(res.Rows[0][0].String()) != "Ben" {
		t.Fatalf("median over strings: %v", res)
	}
}

// TestCompositeCopySemantics: appending an object's value into an own
// extent deep-copies the composite, including fresh copies of own-ref
// components — the copy's kids are new objects, exclusivity intact.
func TestCompositeCopySemantics(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`create Copies : { own Employee }`)
	db.MustExec(`append to Copies (E) from E in Employees where E.name = "Ann"`)
	res := db.MustQuery(`retrieve (n = count(Copies.kids))`)
	if res.Rows[0][0].String() != "2" {
		t.Fatalf("copied kids: %v", res)
	}
	// The copies are distinct objects: mutating the copy's kid leaves the
	// original untouched.
	db.MustExec(`replace K (age = 99) from C in Copies, K in C.kids where K.name = "Amy"`)
	res = db.MustQuery(`retrieve (K.age) from K in Employees.kids where K.name = "Amy"`)
	if res.Rows[0][0].String() != "5" {
		t.Fatalf("original kid mutated through copy: %v", res)
	}
	// Deleting the original leaves the copy whole.
	db.MustExec(`delete E from E in Employees where E.name = "Ann"`)
	res = db.MustQuery(`retrieve (n = count(Copies.kids))`)
	if res.Rows[0][0].String() != "2" {
		t.Fatalf("copy lost kids with original: %v", res)
	}
}

// TestExplain covers the plan display: access methods, pushdown
// placement and the forall residue are all visible.
func TestExplain(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`define index emp_sal on Employees (salary)`)
	out, err := db.Explain(`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > 80 and E.dept is D and D.floor = 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"index probe emp_sal", "build D via scan", "filter:", "(E.dept is D)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	db.MustExec(`range of AE is all Employees`)
	out, err = db.Explain(`retrieve (D.dname) from D in Departments where AE.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "forall AE") {
		t.Errorf("explain missing forall:\n%s", out)
	}
	if _, err := db.Explain(`delete E from E in Employees`); err == nil {
		t.Error("Explain of non-retrieve accepted")
	}
}

// TestDumpLoad round-trips a populated database through Dump/Load:
// schema, objects with identity, nested own-ref components, element
// sets, variables, functions, procedures and indexes all survive.
func TestDumpLoad(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`
		create Wanted : { ref Employee }
		append to Wanted (E) from E in Employees where E.salary > 60
		create Star : ref Employee
		set Star = E from E in Employees where E.name = "Cal"
		define index emp_sal on Employees (salary)
		define function Wealth (E: Employee) returns int4 as (E.salary * 12)
		define procedure Raise (D: Department, amount: int4) as
		  replace E (salary = E.salary + amount) from E in Employees where E.dept is D
		define enum Mood : ( happy, grumpy )
	`)
	var buf strings.Builder
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t)
	if err := db2.Load(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	// Cross-references survive: implicit joins work, the star points at
	// Cal, memberships resolve, kids are intact and owned.
	res := db2.MustQuery(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	if names(res) != "Ann,Cal,Dee" {
		t.Fatalf("implicit join after load: %s", names(res))
	}
	res = db2.MustQuery(`retrieve (Star.name)`)
	if trimQ(res.Rows[0][0].String()) != "Cal" {
		t.Fatalf("star after load: %v", res)
	}
	res = db2.MustQuery(`retrieve (W.name) from W in Wanted`)
	if names(res) != "Ann,Cal" {
		t.Fatalf("ref set after load: %s", names(res))
	}
	res = db2.MustQuery(`retrieve (n = count(Employees.kids))`)
	if res.Rows[0][0].String() != "4" {
		t.Fatalf("kids after load: %v", res)
	}
	// Deleting a parent still cascades (ownership restored).
	db2.MustExec(`delete E from E in Employees where E.name = "Ann"`)
	res = db2.MustQuery(`retrieve (n = count(Employees.kids))`)
	if res.Rows[0][0].String() != "2" {
		t.Fatalf("cascade after load: %v", res)
	}
	// Functions, procedures and indexes came back.
	res = db2.MustQuery(`retrieve (w = E.Wealth) from E in Employees where E.name = "Cal"`)
	if res.Rows[0][0].String() != "1440" {
		t.Fatalf("function after load: %v", res)
	}
	db2.MustExec(`execute Raise (D, 5) from D in Departments where D.floor = 1`)
	if _, ok := db2.Catalog().Index("emp_sal"); !ok {
		t.Fatal("index after load")
	}
	// New inserts do not collide with restored OIDs.
	db2.MustExec(`append to Employees (name = "New", salary = 1)`)
	res = db2.MustQuery(`retrieve (n = count(Employees))`)
	if res.Rows[0][0].String() != "4" {
		t.Fatalf("post-load insert: %v", res)
	}
	// Loading into a non-fresh database is rejected.
	if err := db2.Load(strings.NewReader(buf.String())); err == nil {
		t.Fatal("Load into non-fresh database accepted")
	}
}

// TestKeys covers the paper's promised key support: keys are associated
// with set instances, enforced on insert and update, composite keys
// combine attributes, and null key attributes exempt the object.
func TestKeys(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Acct: ( ssnum: int4, name: varchar, branch: varchar )
		create Accts : { own Acct } key (ssnum) key (name, branch)
	`)
	db.MustExec(`append to Accts (ssnum = 1, name = "a", branch = "x")`)
	// Duplicate single key.
	if _, err := db.Exec(`append to Accts (ssnum = 1, name = "b", branch = "x")`); err == nil ||
		!strings.Contains(err.Error(), "key violation") {
		t.Fatalf("duplicate ssnum accepted: %v", err)
	}
	// Composite key: same name, different branch is fine...
	db.MustExec(`append to Accts (ssnum = 2, name = "a", branch = "y")`)
	// ...same name and branch is not.
	if _, err := db.Exec(`append to Accts (ssnum = 3, name = "a", branch = "x")`); err == nil {
		t.Fatal("duplicate composite key accepted")
	}
	// Update into a violation is rejected; update keeping own value is fine.
	if _, err := db.Exec(`replace A (ssnum = 1) from A in Accts where A.ssnum = 2`); err == nil {
		t.Fatal("update into key violation accepted")
	}
	db.MustExec(`replace A (branch = "z") from A in Accts where A.ssnum = 2`)
	// Null key attributes exempt.
	db.MustExec(`append to Accts (name = "nokey1", branch = "q")`)
	db.MustExec(`append to Accts (name = "nokey2", branch = "q2")`)
	// The same type in a different set instance has no key (keys belong
	// to set instances, not types).
	db.MustExec(`create Others : { own Acct }`)
	db.MustExec(`append to Others (ssnum = 7, name = "o", branch = "b")`)
	db.MustExec(`append to Others (ssnum = 7, name = "o2", branch = "b2")`)
	// Key on a non-existent attribute or a second collection kind fails.
	if _, err := db.Exec(`create Bad : { own Acct } key (nothere)`); err == nil {
		t.Fatal("key over missing attribute accepted")
	}
	// define unique index works like a key added later; backfill detects
	// existing violations.
	if _, err := db.Exec(`define unique index others_ss on Others (ssnum)`); err == nil {
		t.Fatal("unique backfill over duplicates accepted")
	}
	db.MustExec(`define unique index accts_branch_name on Accts (branch)`)
	_ = db
}

// TestKeysSurviveDumpLoad: key constraints round-trip through Dump/Load
// and are enforced afterwards.
func TestKeysSurviveDumpLoad(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Acct: ( ssnum: int4, name: varchar )
		create Accts : { own Acct } key (ssnum)
		append to Accts (ssnum = 1, name = "a")
	`)
	var buf strings.Builder
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t)
	if err := db2.Load(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Exec(`append to Accts (ssnum = 1, name = "dup")`); err == nil {
		t.Fatal("key lost through dump/load")
	}
	db2.MustExec(`append to Accts (ssnum = 2, name = "ok")`)
}

// TestAuthorizationCoversReads: select is enforced on whole-extent
// aggregates and singleton variable reads, not just range sources.
func TestAuthorizationCoversReads(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`create Star : ref Employee`)
	db.MustExec(`set Star = E from E in Employees where E.name = "Ann"`)
	if err := db.CreateUser("peek"); err != nil {
		t.Fatal(err)
	}
	db.EnableAuthorization()
	db.SetUser("peek")
	if _, err := db.Query(`retrieve (s = sum(Employees.salary))`); err == nil {
		t.Fatal("whole-extent aggregate leaked")
	}
	if _, err := db.Query(`retrieve (Star.name)`); err == nil {
		t.Fatal("singleton read leaked")
	}
	db.SetUser("dba")
	db.MustExec(`grant select on Star to peek`)
	db.MustExec(`grant select on Employees to peek`)
	db.SetUser("peek")
	if _, err := db.Query(`retrieve (Star.name, s = sum(Employees.salary))`); err != nil {
		t.Fatalf("granted reads failed: %v", err)
	}
}

// TestDateIndex: ADTs with an ordinal form (Date) are indexable and the
// optimizer uses the index for date-range predicates... with one caveat:
// comparison operators on ADTs resolve through the built-in Compare, so
// the access path applies when the predicate is an ADT comparison the
// method table supports.
func TestDateIndex(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type Ev: ( what: varchar, day: Date )
		create Events : { own Ev }
	`)
	for i := 1; i <= 9; i++ {
		db.MustExec(`append to Events (what = "e` + itoa(i) + `", day = date("0` + itoa(i) + `/01/1987"))`)
	}
	db.MustExec(`define index ev_day on Events (day)`)
	res := db.MustQuery(`retrieve (E.what) from E in Events where E.day < date("04/01/1987")`)
	if len(res.Rows) != 3 {
		t.Fatalf("date range: %v", res)
	}
	// Equality on dates also works through the index path.
	res = db.MustQuery(`retrieve (E.what) from E in Events where E.day = date("05/01/1987")`)
	if names(res) != "e5" {
		t.Fatalf("date equality: %v", res)
	}
}
