package object

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// TestCheckConsistencyFindsDivergentRecord: an extent member's tuple is
// held twice, by its directory entry, which Get reads, and by its place
// in the member list, which scans read, so the fsck is what holds the
// two together. A tuple planted in the list under the store — another
// name, or the same age under another integer kind, which value.Equal
// would let pass — is reported, whether the entry's tuple is the one the
// insert stored or, after a commit, the snapshot's.
func TestCheckConsistencyFindsDivergentRecord(t *testing.T) {
	plants := []struct {
		name  string
		plant func(f *fixture) *value.Tuple
	}{
		{"another name", func(f *fixture) *value.Tuple { return f.newPerson("Bob", 41) }},
		{"another integer kind", func(f *fixture) *value.Tuple {
			tv := f.newPerson("Ann", 0)
			tv.Set("age", value.Int{K: types.KInt2, V: 41})
			return tv
		}},
	}
	for _, p := range plants {
		for _, commit := range []bool{false, true} {
			f := newFixture(t)
			id, err := f.store.Insert("People", f.newPerson("Ann", 41))
			if err != nil {
				t.Fatal(err)
			}
			if commit {
				if _, err := f.store.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if bad := f.store.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("%s: consistent store reported %q", p.name, bad)
			}
			if err := f.store.plantMember(id, p.plant(f)); err != nil {
				t.Fatal(err)
			}
			bad := f.store.CheckConsistency()
			if len(bad) != 1 || !strings.Contains(bad[0], id.String()) || !strings.Contains(bad[0], "working value") {
				t.Errorf("%s, committed %v: fsck reported %q, want the divergent member %s", p.name, commit, bad, id)
			}
		}
	}
}

// TestCheckConsistencyFindsUnclaimedSlots: the directory is the only
// map from objects to their places in member lists, so the fsck holds it
// against the lists both ways. An entry planted with another object's
// position names a place that holds the other, and leaves its own member
// with no entry naming its place; a member planted under no entry has
// none either. Each is reported, whether the entries are the window's
// or, after a commit, the head's.
func TestCheckConsistencyFindsUnclaimedSlots(t *testing.T) {
	plants := []struct {
		name  string
		plant func(f *fixture, ann, bob oid.OID) error
		want  []string // substrings, each in some report line
	}{
		{"an entry naming another object's slot", func(f *fixture, ann, bob oid.OID) error {
			so, _ := f.store.dir.get(ann)
			so.at = uint64(f.store.ridOf(bob))
			f.store.dir.set(ann, so)
			return nil
		}, []string{"object " + oid.OID(1).String() + ": its position 1 in extent People holds " + oid.OID(2).String(),
			"member " + oid.OID(1).String() + " at 0 has no directory entry there"}},
		{"a member no entry claims", func(f *fixture, _, _ oid.OID) error {
			return f.store.plantOrphan("People", f.newPerson("Nobody", 9))
		}, []string{"member " + oid.OID(3).String() + " at 2 has no directory entry there"}},
	}
	for _, p := range plants {
		for _, commit := range []bool{false, true} {
			f := newFixture(t)
			ann, err := f.store.Insert("People", f.newPerson("Ann", 41))
			if err != nil {
				t.Fatal(err)
			}
			bob, err := f.store.Insert("People", f.newPerson("Bob", 7))
			if err != nil {
				t.Fatal(err)
			}
			if commit {
				if _, err := f.store.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if bad := f.store.CheckConsistency(); len(bad) != 0 {
				t.Fatalf("%s: consistent store reported %q", p.name, bad)
			}
			if err := p.plant(f, ann, bob); err != nil {
				t.Fatal(err)
			}
			bad := strings.Join(f.store.CheckConsistency(), "\n")
			for _, w := range p.want {
				if !strings.Contains(bad, w) {
					t.Errorf("%s, committed %v: fsck reported %q, want a line with %q", p.name, commit, bad, w)
				}
			}
		}
	}
}

// TestFreezeSealsTheDirectory: the store has one object directory, an
// edit of the head's trie. A freeze seals the edit as the next head's
// map, copying nothing, and opens the next edit on it; a write copies
// the path to its entry, and the head keeps its own until the next
// freeze.
func TestFreezeSealsTheDirectory(t *testing.T) {
	if n := unsafe.Sizeof(snapObj{}); n != 24 {
		t.Errorf("a directory entry is %d B, want 24: three words", n)
	}
	f := newFixture(t)
	s := f.store
	if _, err := s.Insert("People", f.newPerson("Ann", 41)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.dir.m.root != s.head.objs.root || s.dir.written != 0 {
		t.Fatal("after a commit the working directory is not the head's map")
	}
	p := f.newPerson("Bob", 7)
	p.Set("kids", &value.Set{Elems: []value.Value{f.newPerson("Bea", 2)}})
	bob, err := s.Insert("People", p)
	if err != nil {
		t.Fatal(err)
	}
	if s.dir.written != 2 {
		t.Errorf("a person with a kid wrote %d entries, want 2", s.dir.written)
	}
	if s.head.Exists(bob) || !s.Exists(bob) {
		t.Fatal("the write reached the head, or not the working directory")
	}
	edited := s.dir.m.root
	if edited == s.head.objs.root {
		t.Fatal("the write did not copy the path to its entry")
	}
	sn, err := s.View()
	if err != nil {
		t.Fatal(err)
	}
	if sn.objs.root != edited {
		t.Error("the freeze copied the directory instead of sealing it")
	}
	if s.dir.m.root != sn.objs.root || s.dir.written != 0 {
		t.Error("the freeze opened no fresh edit of the head's map")
	}
	if tv, ok, _ := sn.Get(bob); !ok || tv.Get("name").String() != `"Bob"` {
		t.Errorf("the frozen head reads %v for the new object", tv)
	}
}

// TestStoredStringsOwnTheirBytes: the tuple a write stores is the
// snapshot's from the next freeze on, so a string it holds must not be a
// slice of the caller's larger string (a statement's text, for a string
// literal) and keep that alive.
func TestStoredStringsOwnTheirBytes(t *testing.T) {
	f := newFixture(t)
	text := `append to People (name = "Ann", age = 41)`
	name := text[strings.IndexByte(text, '"')+1 : strings.LastIndexByte(text, '"')]
	id, err := f.store.Insert("People", f.newPerson(name, 41))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Commit(); err != nil {
		t.Fatal(err)
	}
	tv, _, _ := f.store.Snapshot().Get(id)
	got, _ := value.AsString(tv.Get("name"))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(got))); got != name || (p >= lo && p < lo+uintptr(len(text))) {
		t.Errorf("stored name %q shares the bytes of the text it was cut from", got)
	}
}

// TestFreezeDecodesRestoredRecords: what RestoreObject writes has no
// working value, so the freeze decodes it from the record RestoreObject
// kept — a short one and one of several kilobytes alike — and counts
// each decode in mvcc.commit.decoded. RestoreElem decodes its element
// itself, so the freeze decodes none. The snapshot then holds what was
// restored, in its member list's order, and the next write to the same
// chunk decodes nothing.
func TestFreezeDecodesRestoredRecords(t *testing.T) {
	f := newFixture(t)
	reg := metrics.NewRegistry()
	f.store.SetMetrics(reg)
	v, err := f.cat.CreateVar("Names", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: types.Varchar}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.InitVar(v); err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Commit(); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("b", 8192)
	names := []string{"Ann", big}
	for i, name := range names {
		enc, err := encode(f.newPerson(name, 40))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.store.RestoreObject(ExportObject{Extent: "People", OID: oid.OID(100 + i), Data: enc}); err != nil {
			t.Fatal(err)
		}
		if enc, err = encode(value.NewStr(name)); err != nil {
			t.Fatal(err)
		}
		if err := f.store.RestoreElem("Names", enc); err != nil {
			t.Fatal(err)
		}
	}
	decoded := func() uint64 { return reg.Snapshot().Histograms["mvcc.commit.decoded"].SumNS }
	if _, err := f.store.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := decoded(); got != 2 {
		t.Errorf("the commit decoded %d records, want the 2 restored objects", got)
	}
	sn := f.store.Snapshot()
	var gotObjs, gotElems []string
	sn.ScanExtent("People", func(_ oid.OID, tv *value.Tuple) error {
		s, _ := value.AsString(tv.Get("name"))
		gotObjs = append(gotObjs, s)
		return nil
	})
	sn.ScanElems("Names", func(_ int, v value.Value) error {
		s, _ := value.AsString(v)
		gotElems = append(gotElems, s)
		return nil
	})
	if !reflect.DeepEqual(gotObjs, names) || !reflect.DeepEqual(gotElems, names) {
		t.Errorf("snapshot holds %d objects and %d elements, not the restored ones", len(gotObjs), len(gotElems))
	}
	if _, err := f.store.Insert("People", f.newPerson("Cid", 7)); err != nil {
		t.Fatal(err)
	}
	before := decoded()
	if _, err := f.store.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := decoded() - before; got != 0 {
		t.Errorf("an insert beside the restored objects decoded %d records", got)
	}
	if bad := f.store.CheckConsistency(); len(bad) != 0 {
		t.Errorf("fsck: %q", bad)
	}
}

// TestRestoreRefusesOIDOfLastFreeze: an object's working value is the
// head's tuple until a write stores another, so RestoreObject must not
// give an OID the head holds a record of its own, even once the object
// was deleted: the store would read the head's tuple in its place.
func TestRestoreRefusesOIDOfLastFreeze(t *testing.T) {
	f := newFixture(t)
	id, err := f.store.Insert("People", f.newPerson("Ann", 41))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Delete(id); err != nil {
		t.Fatal(err)
	}
	enc, err := encode(f.newPerson("Bob", 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.RestoreObject(ExportObject{Extent: "People", OID: id, Data: enc}); err == nil {
		t.Errorf("restored %s over the head's object of that OID", id)
	}
}

// TestRestoreRegroupsItsLeaves: a freeze after a restore reallocates the
// directory leaves its edit wrote, one after another, so a bulk Load's
// leaves do not stay scattered among the heap pages allocated between
// them; a leaf the window did not write stays shared with the last head.
func TestRestoreRegroupsItsLeaves(t *testing.T) {
	f := newFixture(t)
	s := f.store
	ann, err := s.Insert("People", f.newPerson("Ann", 41))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	kept := s.head.objs.leafOf(ann)
	const first, n = 1000, 3 * objFan
	for i := range n {
		enc, err := encode(f.newPerson("Bob", int64(i%100)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreObject(ExportObject{Extent: "People", OID: oid.OID(first + i), Data: enc}); err != nil {
			t.Fatal(err)
		}
	}
	restored := map[*objLeaf]bool{}
	for i := range n {
		restored[s.dir.m.leafOf(oid.OID(first+i))] = true
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.head.objs.leafOf(ann) != kept {
		t.Error("the freeze copied a leaf the restore did not write")
	}
	for i := range n {
		id := oid.OID(first + i)
		if restored[s.head.objs.leafOf(id)] {
			t.Fatalf("the leaf of restored %s is the one RestoreObject allocated", id)
		}
		if tv, ok, _ := s.head.Get(id); !ok || tv.Get("age").String() != value.NewInt(int64(i%100)).String() {
			t.Fatalf("restored %s reads %v after the freeze", id, tv)
		}
	}
	if bad := s.CheckConsistency(); len(bad) != 0 {
		t.Errorf("fsck: %q", bad)
	}
}
