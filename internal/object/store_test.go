package object

import (
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// fixture builds a store with Person (self-referential own-ref kids,
// ref friend) and the Employees extent.
type fixture struct {
	store  *Store
	cat    *catalog.Catalog
	person *types.TupleType
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cat := catalog.New(adt.NewRegistry())
	f := &fixture{cat: cat, store: New(nil, cat)}
	f.definePeople(t)
	return f
}

// definePeople defines Person and creates the People extent.
func (f *fixture) definePeople(t testing.TB) {
	t.Helper()
	person := types.NewForward("Person")
	err := person.Complete(nil, []types.Attr{
		{Name: "name", Comp: types.Component{Mode: types.Own, Type: types.Varchar}},
		{Name: "age", Comp: types.Component{Mode: types.Own, Type: types.Int4}},
		{Name: "kids", Comp: types.Component{Mode: types.Own, Type: &types.Set{
			Elem: types.Component{Mode: types.OwnRef, Type: person}}}},
		{Name: "friend", Comp: types.Component{Mode: types.RefTo, Type: person}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.cat.DefineTuple(person); err != nil {
		t.Fatal(err)
	}
	v, err := f.cat.CreateVar("People", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: person}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.InitVar(v); err != nil {
		t.Fatal(err)
	}
	f.person = person
}

func (f *fixture) newPerson(name string, age int64) *value.Tuple {
	tv := value.NewTuple(f.person)
	tv.Set("name", value.NewStr(name))
	tv.Set("age", value.NewInt(age))
	return tv
}

func TestInsertGetDelete(t *testing.T) {
	f := newFixture(t)
	id, err := f.store.Insert("People", f.newPerson("Ann", 41))
	if err != nil {
		t.Fatal(err)
	}
	tv, ok, err := f.store.Get(id)
	if err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if s, _ := value.AsString(tv.Get("name")); s != "Ann" {
		t.Errorf("name = %q", s)
	}
	if so, _ := f.store.dir.get(id); so.tv.Type != f.person {
		t.Error("type wrong")
	}
	if n, _ := f.store.ExtentLen("People"); n != 1 {
		t.Error("extent length")
	}
	if err := f.store.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f.store.Get(id); ok {
		t.Error("deleted object readable")
	}
	if f.store.Exists(id) {
		t.Error("deleted object exists")
	}
	if err := f.store.Delete(id); err == nil {
		t.Error("double delete accepted")
	}
}

func TestOwnRefInternalization(t *testing.T) {
	f := newFixture(t)
	parent := f.newPerson("Ann", 41)
	kid := f.newPerson("Amy", 7)
	parent.Set("kids", &value.Set{Elems: []value.Value{kid}})
	id, err := f.store.Insert("People", parent)
	if err != nil {
		t.Fatal(err)
	}
	stored, _, _ := f.store.Get(id)
	kids := stored.Get("kids").(*value.Set)
	if len(kids.Elems) != 1 {
		t.Fatal("kid lost")
	}
	ref, isRef := kids.Elems[0].(value.Ref)
	if !isRef {
		t.Fatalf("own ref kid stored as %T, want reference", kids.Elems[0])
	}
	// The kid is a live object owned by the parent.
	ktv, ok, _ := f.store.Get(ref.OID)
	if !ok {
		t.Fatal("kid object missing")
	}
	if s, _ := value.AsString(ktv.Get("name")); s != "Amy" {
		t.Error("kid content")
	}
	if so, _ := f.store.dir.get(ref.OID); so.owner(f.store.restored) != id {
		t.Error("kid owner wrong")
	}
	// Cascading delete destroys the kid.
	if err := f.store.Delete(id); err != nil {
		t.Fatal(err)
	}
	if f.store.Exists(ref.OID) {
		t.Error("owned kid survived parent deletion")
	}
}

func TestExclusivity(t *testing.T) {
	f := newFixture(t)
	p1 := f.newPerson("P1", 30)
	kid := f.newPerson("K", 3)
	p1.Set("kids", &value.Set{Elems: []value.Value{kid}})
	id1, err := f.store.Insert("People", p1)
	if err != nil {
		t.Fatal(err)
	}
	stored, _, _ := f.store.Get(id1)
	kidRef := stored.Get("kids").(*value.Set).Elems[0].(value.Ref)

	// A second parent claiming the same kid must fail.
	p2 := f.newPerson("P2", 31)
	p2.Set("kids", &value.Set{Elems: []value.Value{kidRef}})
	if _, err := f.store.Insert("People", p2); err == nil ||
		!strings.Contains(err.Error(), "own") {
		t.Fatalf("exclusivity not enforced: %v", err)
	}
	// Claiming an extent-resident object as a component must fail too.
	p3 := f.newPerson("P3", 32)
	p3.Set("kids", &value.Set{Elems: []value.Value{value.Ref{OID: id1, Type: "Person"}}})
	if _, err := f.store.Insert("People", p3); err == nil {
		t.Fatal("extent object claimed as component")
	}
}

func TestPlainRefIsShared(t *testing.T) {
	f := newFixture(t)
	id1, _ := f.store.Insert("People", f.newPerson("A", 1))
	b := f.newPerson("B", 2)
	b.Set("friend", value.Ref{OID: id1, Type: "Person"})
	id2, _ := f.store.Insert("People", b)
	c := f.newPerson("C", 3)
	c.Set("friend", value.Ref{OID: id1, Type: "Person"})
	if _, err := f.store.Insert("People", c); err != nil {
		t.Fatalf("shared ref rejected: %v", err)
	}
	// Deleting the referent leaves friends dangling, not cascaded.
	if err := f.store.Delete(id1); err != nil {
		t.Fatal(err)
	}
	if !f.store.Exists(id2) {
		t.Error("ref holder cascaded")
	}
	tv, _, _ := f.store.Get(id2)
	fr := tv.Get("friend").(value.Ref)
	if _, ok, _ := f.store.Get(fr.OID); ok {
		t.Error("dangling friend resolvable")
	}
	sn, err := f.store.View()
	if err != nil {
		t.Fatal(err)
	}
	if tvd, ok, err := sn.Get(fr.OID); ok || tvd != nil || err != nil {
		t.Error("dangling ref must read as null at the snapshot")
	}
}

func TestUpdateOwnedDiff(t *testing.T) {
	f := newFixture(t)
	p := f.newPerson("P", 40)
	p.Set("kids", &value.Set{Elems: []value.Value{f.newPerson("K1", 1), f.newPerson("K2", 2)}})
	id, _ := f.store.Insert("People", p)
	tv, _, _ := f.store.Get(id)
	kids := tv.Get("kids").(*value.Set)
	k1 := kids.Elems[0].(value.Ref)
	k2 := kids.Elems[1].(value.Ref)

	// Drop K1, keep K2, add K3 in one update.
	tv.Set("kids", &value.Set{Elems: []value.Value{k2, f.newPerson("K3", 3)}})
	if err := f.store.Update(id, tv); err != nil {
		t.Fatal(err)
	}
	if f.store.Exists(k1.OID) {
		t.Error("removed kid not destroyed")
	}
	if !f.store.Exists(k2.OID) {
		t.Error("kept kid destroyed")
	}
	tv2, _, _ := f.store.Get(id)
	if len(tv2.Get("kids").(*value.Set).Elems) != 2 {
		t.Error("kids after update")
	}
}

func TestCharPaddingOnStore(t *testing.T) {
	cat := catalog.New(adt.NewRegistry())
	store := New(nil, cat)
	tt := types.MustTupleType("Padded", nil, []types.Attr{
		{Name: "code", Comp: types.Component{Mode: types.Own, Type: types.Char(4)}},
	})
	cat.DefineTuple(tt)
	v, _ := cat.CreateVar("Pads", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: tt}}})
	store.InitVar(v)

	tv := value.NewTuple(tt)
	tv.Set("code", value.NewStr("ab"))
	id, err := store.Insert("Pads", tv)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := store.Get(id)
	s := got.Get("code").(value.Str)
	if s.K != types.KChar || s.V != "ab  " {
		t.Errorf("char not padded: %q kind %v", s.V, s.K)
	}
	// Over-length values truncate.
	tv.Set("code", value.NewStr("abcdef"))
	id2, _ := store.Insert("Pads", tv)
	got, _, _ = store.Get(id2)
	if got.Get("code").(value.Str).V != "abcd" {
		t.Error("char not truncated")
	}
}

func TestIntRangeChecked(t *testing.T) {
	cat := catalog.New(adt.NewRegistry())
	store := New(nil, cat)
	tt := types.MustTupleType("Narrow", nil, []types.Attr{
		{Name: "b", Comp: types.Component{Mode: types.Own, Type: types.Int1}},
	})
	cat.DefineTuple(tt)
	v, _ := cat.CreateVar("Ns", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: tt}}})
	store.InitVar(v)
	tv := value.NewTuple(tt)
	tv.Set("b", value.Int{K: types.KInt1, V: 300})
	if _, err := store.Insert("Ns", tv); err == nil {
		t.Error("out-of-range int1 stored")
	}
}

func TestVariables(t *testing.T) {
	f := newFixture(t)
	v, err := f.cat.CreateVar("Star", types.Component{Mode: types.RefTo, Type: f.person})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.InitVar(v); err != nil {
		t.Fatal(err)
	}
	got, err := f.store.GetVar("Star")
	if err != nil || !value.IsNull(got) {
		t.Fatalf("fresh var: %v %v", got, err)
	}
	id, _ := f.store.Insert("People", f.newPerson("S", 9))
	if err := f.store.SetVar("Star", value.Ref{OID: id, Type: "Person"}); err != nil {
		t.Fatal(err)
	}
	got, _ = f.store.GetVar("Star")
	if got.(value.Ref).OID != id {
		t.Error("var roundtrip")
	}
	// Fixed arrays initialize to nulls.
	av, _ := f.cat.CreateVar("Top3", types.Component{Mode: types.Own, Type: &types.Array{
		Elem: types.Component{Mode: types.RefTo, Type: f.person}, Len: 3, Fixed: true}})
	f.store.InitVar(av)
	arr, _ := f.store.GetVar("Top3")
	a := arr.(*value.Array)
	if len(a.Elems) != 3 || !value.IsNull(a.Elems[0]) {
		t.Errorf("array init: %s", arr)
	}
	// DropVar destroys var-owned components.
	ov, _ := f.cat.CreateVar("Solo", types.Component{Mode: types.OwnRef, Type: f.person})
	f.store.InitVar(ov)
	if err := f.store.SetVar("Solo", f.newPerson("Own", 5)); err != nil {
		t.Fatal(err)
	}
	solo, _ := f.store.GetVar("Solo")
	soloOID := solo.(value.Ref).OID
	if !f.store.Exists(soloOID) {
		t.Fatal("own-ref var component missing")
	}
	if err := f.store.DropVar(ov); err != nil {
		t.Fatal(err)
	}
	if f.store.Exists(soloOID) {
		t.Error("var-owned component survived drop")
	}
}

func TestElemExtents(t *testing.T) {
	f := newFixture(t)
	rv, _ := f.cat.CreateVar("Wanted", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.RefTo, Type: f.person}}})
	f.store.InitVar(rv)
	if !f.store.IsElemExtent("Wanted") || f.store.IsObjectExtent("Wanted") {
		t.Error("extent classification")
	}
	id, _ := f.store.Insert("People", f.newPerson("W", 1))
	f.store.InsertElem("Wanted", value.Ref{OID: id, Type: "Person"})
	n := 0
	pos := -1
	f.store.ScanElems("Wanted", func(p int, v value.Value) error {
		pos = p
		n++
		return nil
	})
	if n != 1 {
		t.Fatal("elem scan")
	}
	if err := f.store.DeleteElem("Wanted", pos); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.store.ElemLen("Wanted"); n != 0 {
		t.Error("elem delete")
	}
}

func TestIndexes(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 100; i++ {
		if _, err := f.store.Insert("People", f.newPerson("p", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := f.store.BuildIndex("people_age", "People", []string{"age"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 100 {
		t.Fatalf("index backfill: %d", ix.Tree.Len())
	}
	// Maintenance on insert.
	id, _ := f.store.Insert("People", f.newPerson("new", 55))
	if ix.Tree.Len() != 101 {
		t.Error("index not maintained on insert")
	}
	// Lookup through the index.
	lo, _ := keyOf(t, 55)
	ids := IndexLookup(ix, lo, lo, true, true)
	found := false
	for _, got := range ids {
		if got == id {
			found = true
		}
	}
	if !found {
		t.Error("index lookup missed the new object")
	}
	// Maintenance on update and delete.
	tv, _, _ := f.store.Get(id)
	tv.Set("age", value.NewInt(77))
	f.store.Update(id, tv)
	if got := IndexLookup(ix, lo, lo, true, true); containsOID(got, id) {
		t.Error("stale index entry after update")
	}
	f.store.Delete(id)
	if ix.Tree.Len() != 100 {
		t.Errorf("index len after delete: %d", ix.Tree.Len())
	}
	// Invalid index paths are rejected.
	if _, err := f.store.BuildIndex("bad1", "People", []string{"friend"}, false); err == nil {
		t.Error("index over ref attribute accepted")
	}
	if _, err := f.store.BuildIndex("bad2", "People", []string{"kids"}, false); err == nil {
		t.Error("index over set attribute accepted")
	}
	if _, err := f.store.BuildIndex("bad3", "People", []string{"zzz"}, false); err == nil {
		t.Error("index over missing attribute accepted")
	}
}

func keyOf(t *testing.T, age int64) ([]byte, bool) {
	t.Helper()
	k, ok := keyEncodeInt(age)
	if !ok {
		t.Fatal("key encode failed")
	}
	return k, ok
}

func containsOID(ids []oid.OID, id oid.OID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// TestUniqueIndexOverDuplicates: building a unique index, or a key
// constraint, over an extent that already holds two objects with one key
// fails with the key-violation message and registers nothing; the same
// index built non-unique holds both objects under the key, and every
// other object under its own.
func TestUniqueIndexOverDuplicates(t *testing.T) {
	f := newFixture(t)
	for i, name := range []string{"Ann", "Bob", "Ann", "Cid"} {
		if _, err := f.store.Insert("People", f.newPerson(name, int64(30+i%2))); err != nil {
			t.Fatal(err)
		}
	}
	_, err := f.store.BuildIndex("uq", "People", []string{"name"}, true)
	if err == nil || err.Error() != "key violation in People: duplicate (name)" {
		t.Fatalf("unique index over a duplicate name: %v", err)
	}
	_, err = f.store.BuildKey("People", []string{"name", "age"}, 1)
	if err == nil || err.Error() != "key violation in People: duplicate (name, age)" {
		t.Fatalf("key constraint over a duplicate (name, age): %v", err)
	}
	if n := len(f.cat.IndexesOn("People")); n != 0 {
		t.Fatalf("%d indexes registered after the failed builds", n)
	}
	ix, err := f.store.BuildIndex("nu", "People", []string{"name"}, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"Ann": 2, "Bob": 1, "Cid": 1, "Dee": 0} {
		k, _ := codec.EncodeKey(value.NewStr(name))
		if got := len(f.store.IndexLookup(ix, k, k, true, true)); got != want {
			t.Errorf("%s: %d objects under the key, want %d", name, got, want)
		}
	}
	if err := ix.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesOwnedMember: only a component has an owner; a
// restored extent member given one (a dump or log line written by hand)
// is refused, and a component keeps the owner it was restored with.
func TestRestoreRefusesOwnedMember(t *testing.T) {
	f := newFixture(t)
	enc, err := encode(f.newPerson("Ann", 30))
	if err != nil {
		t.Fatal(err)
	}
	err = f.store.RestoreObject(ExportObject{Extent: "People", OID: 5, Owner: 3, Data: enc})
	if err == nil || !strings.Contains(err.Error(), "has an owner") {
		t.Fatalf("restoring an owned extent member: %v", err)
	}
	if err := f.store.RestoreObject(ExportObject{OID: 6, Owner: 3, Data: enc}); err != nil {
		t.Fatal(err)
	}
	objs, err := f.store.ExportObjects()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].OID != 6 || objs[0].Owner != 3 {
		t.Fatalf("exported %+v, want component 6 owned by 3", objs)
	}
	// A restored component still pending its freeze can be claimed: the
	// owner goes to its restored record, and the freeze settles it.
	if err := f.store.RestoreObject(ExportObject{OID: 7, Data: enc}); err != nil {
		t.Fatal(err)
	}
	p := f.newPerson("Bob", 40)
	p.Set("kids", &value.Set{Elems: []value.Value{value.Ref{OID: 7, Type: "Person"}}})
	id, err := f.store.Insert("People", p)
	if err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"pending", "frozen"} {
		if so, _ := f.store.dir.get(7); so.owner(f.store.restored) != id {
			t.Fatalf("%s: component 7 owned by %s, want %s", when, so.owner(f.store.restored), id)
		}
		if _, err := f.store.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Component 6's owner is dead and holds no reference to it; nothing
	// else is wrong.
	bad := f.store.CheckConsistency()
	if len(bad) != 2 || !strings.Contains(bad[0], "oid#6") || !strings.Contains(bad[1], "oid#6") {
		t.Fatalf("fsck: %q, want component 6's two owner violations alone", bad)
	}
}
