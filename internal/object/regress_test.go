package object

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/catalog"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// TestUpdateMoveSurvivesFailedWrite pins the fix for a record lost by a
// failed move. An update that grows a record past its page's free space
// moves it; when the new page cannot be had because evicting a dirty
// frame fails its write-back, the update must fail with the object
// still readable at its old value and its index entry where it was.
// The heap file used to delete the old record before inserting the new
// one, and the store to drop the index entry before the heap write.
func TestUpdateMoveSurvivesFailedWrite(t *testing.T) {
	cat := catalog.New(adt.NewRegistry())
	fs := storage.NewFaultStore(storage.NewMemStore())
	f := &fixture{cat: cat, store: New(storage.NewBufferPool(fs, 4), cat)}
	f.definePeople(t)
	if _, err := f.store.BuildIndex("people_name", "People", []string{"name"}, false); err != nil {
		t.Fatal(err)
	}
	// Sixteen ≈900-byte records fill four pages, one per frame of the
	// pool, each dirty and with no room for 1 500 bytes.
	var id oid.OID
	for i := 0; i < 16; i++ {
		var err error
		if id, err = f.store.Insert("People", f.newPerson(fmt.Sprintf("%02d%s", i, strings.Repeat("x", 900)), 30)); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.store.extents["People"].heap.NumPages(); n != 4 {
		t.Fatalf("setup: %d pages, want 4", n)
	}
	tv, _, err := f.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	was := tv.Get("name").String()
	tv.Set("name", value.NewStr(strings.Repeat("g", 1500)))
	fs.FailWrite(1, 0)
	err = f.store.Update(id, tv)
	fs.FailWrite(0, 0) // disarm
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Update = %v, want the injected write failure", err)
	}
	got, ok, err := f.store.Get(id)
	if err != nil || !ok {
		t.Fatalf("after the failed update the object reads ok=%v err=%v", ok, err)
	}
	if got.Get("name").String() != was {
		t.Fatal("the failed update changed the object")
	}
	if bad := f.store.CheckConsistency(); len(bad) > 0 {
		t.Fatalf("store inconsistent after the failed update: %q", bad)
	}
}

// TestUpdateMoveInOneFramePool pins that a growing update moves its
// record in the smallest pool there is. A one-frame pool has no second
// frame, and the insert at the new place needs the one there is: a move
// that kept the old page pinned across the insert failed with the pool
// exhausted.
func TestUpdateMoveInOneFramePool(t *testing.T) {
	cat := catalog.New(adt.NewRegistry())
	f := &fixture{cat: cat, store: New(storage.NewBufferPool(storage.NewMemStore(), 1), cat)}
	f.definePeople(t)
	if _, err := f.store.BuildIndex("people_name", "People", []string{"name"}, false); err != nil {
		t.Fatal(err)
	}
	// Four ≈900-byte records leave their page no room for 1 500 bytes.
	var id oid.OID
	for i := 0; i < 4; i++ {
		var err error
		if id, err = f.store.Insert("People", f.newPerson(fmt.Sprintf("%02d%s", i, strings.Repeat("x", 900)), 30)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.store.Commit(); err != nil {
		t.Fatal(err)
	}
	was := f.store.ridOf(id)
	tv, _, err := f.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	grown := strings.Repeat("g", 1500)
	tv.Set("name", value.NewStr(grown))
	if err := f.store.Update(id, tv); err != nil {
		t.Fatalf("moving update in a one-frame pool: %v", err)
	}
	if f.store.ridOf(id).Page == was.Page {
		t.Fatal("setup: the record did not move")
	}
	if got, _, err := f.store.Get(id); err != nil {
		t.Fatal(err)
	} else if name, _ := value.AsString(got.Get("name")); name != grown {
		t.Fatalf("after the move the name is %d bytes, want 1 500", len(name))
	}
	if _, err := f.store.Commit(); err != nil {
		t.Fatal(err)
	}
	max := f.store.gen.Next()
	if live, snap := render(f.store, max, nil), render(f.store.Snapshot(), max, nil); live != snap {
		t.Fatalf("snapshot differs from the live store: %s", firstDiff(live, snap))
	}
	if bad := f.store.CheckConsistency(); len(bad) > 0 {
		t.Fatalf("store inconsistent after the move: %q", bad)
	}
}

// TestDropVarFailedHalfWayCommits pins that a drop which fails part-way
// leaves a store that can still commit. A multi-page extent is dropped
// over a four-frame pool whose second eviction write-back fails, so
// some members are deleted and the rest stay. The drop used to mark
// the extent as dropped before deleting anything; the extent
// then stayed live with that mark, every later commit froze its pages
// as new, found records nothing had written, and failed.
func TestDropVarFailedHalfWayCommits(t *testing.T) {
	cat := catalog.New(adt.NewRegistry())
	fs := storage.NewFaultStore(storage.NewMemStore())
	f := &fixture{cat: cat, store: New(storage.NewBufferPool(fs, 4), cat)}
	f.definePeople(t)
	s := f.store
	temp, err := cat.CreateVar("Temp", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: f.person}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitVar(temp); err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		if _, err := s.Insert("Temp", f.newPerson(fmt.Sprintf("%02d%s", i, strings.Repeat("t", 900)), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	fs.FailWrite(2, 0)
	err = s.DropVar(temp)
	fs.FailWrite(0, 0) // disarm
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("DropVar = %v, want the injected write failure", err)
	}
	if left, _ := s.ExtentLen("Temp"); left == 0 || left == n {
		t.Fatalf("setup: %d of %d members left; the drop should have failed part-way", left, n)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("commit after the failed drop: %v", err)
	}
	max := s.gen.Next()
	if live, snap := render(s, max, nil), render(s.Snapshot(), max, nil); live != snap {
		t.Fatalf("snapshot differs from the live store: %s", firstDiff(live, snap))
	}
	if bad := s.CheckConsistency(); len(bad) > 0 {
		t.Fatalf("store inconsistent after the failed drop: %q", bad)
	}
}

// TestCheckConsistencyDeterministic pins the fix for the fsck's report
// order: with several violations present, two runs over the same store
// must produce identical reports. Before the fix the passes ranged over
// maps directly, so the order flickered between runs. (The detorder
// analyzer guards the same contract statically.)
func TestCheckConsistencyDeterministic(t *testing.T) {
	f := newFixture(t)
	var ids []oid.OID
	for _, name := range []string{"Ann", "Bob", "Cid", "Dee", "Eve", "Fay"} {
		id, err := f.store.Insert("People", f.newPerson(name, 30))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Violation 1..6: every object owned by a distinct dead owner.
	for i, id := range ids {
		so, _ := f.store.dir.get(id)
		so.owner = oid.OID(1<<40 + uint64(i))
		f.store.dir.set(id, so)
	}
	// Violation 7: a record on an extent page that no object claims.
	if err := f.store.plantOrphan("People", f.newPerson("Nobody", 30)); err != nil {
		t.Fatal(err)
	}

	first := f.store.CheckConsistency()
	if len(first) != 7 {
		t.Fatalf("expected 7 violations, got %d: %q", len(first), first)
	}
	for run := 0; run < 10; run++ {
		again := f.store.CheckConsistency()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("fsck output not deterministic:\nfirst: %q\nagain: %q", first, again)
		}
	}
}
