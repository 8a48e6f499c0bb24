package object

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// TestUpdateKeepsChunkPosition: an extent member's place in its member
// list is its place in scan order, and only a delete before it in its
// chunk moves it. An update that grows the record a hundredfold leaves
// it where it was; a delete in front of it leaves it there until the
// freeze compacts the chunk and re-points its directory entry. The scan
// order is the same throughout, and the snapshot reads what the live
// store reads.
func TestUpdateKeepsChunkPosition(t *testing.T) {
	f := newFixture(t)
	s := f.store
	var ids []oid.OID
	for i := 0; i < chunkLen+chunkLen/2; i++ {
		id, err := s.Insert("People", f.newPerson(fmt.Sprintf("p%03d", i), int64(i%80)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	order := func() []oid.OID {
		var got []oid.OID
		s.Snapshot().ScanExtent("People", func(id oid.OID, _ *value.Tuple) error {
			got = append(got, id)
			return nil
		})
		return got
	}
	id := ids[10]
	tv, _, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	grown := strings.Repeat("g", 1500)
	tv.Set("name", value.NewStr(grown))
	if err := s.Update(id, tv); err != nil {
		t.Fatal(err)
	}
	if at := s.ridOf(id); at != 10 {
		t.Fatalf("the grown member is at %d, want 10", at)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := order(); !reflect.DeepEqual(got, ids) {
		t.Fatal("a growing update changed the scan order")
	}
	if got, _, _ := s.Get(id); got.Get("name").String() != value.NewStr(grown).String() {
		t.Fatal("the update was lost")
	}
	if err := s.Delete(ids[3]); err != nil {
		t.Fatal(err)
	}
	if at := s.ridOf(id); at != 10 {
		t.Fatalf("before the freeze the member is at %d, want 10", at)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if at := s.ridOf(id); at != 9 {
		t.Fatalf("after the freeze compacted its chunk the member is at %d, want 9", at)
	}
	if at := s.ridOf(ids[chunkLen]); at != chunkLen {
		t.Fatalf("a member of the next chunk is at %d, want %d", at, chunkLen)
	}
	want := append(append([]oid.OID{}, ids[:3]...), ids[4:]...)
	if got := order(); !reflect.DeepEqual(got, want) {
		t.Fatal("a delete changed the order of the members left")
	}
	max := s.gen.Next()
	if live, snap := render(s, max, nil), render(s.Snapshot(), max, nil); live != snap {
		t.Fatalf("snapshot differs from the live store: %s", firstDiff(live, snap))
	}
	if bad := s.CheckConsistency(); len(bad) > 0 {
		t.Fatalf("store inconsistent: %q", bad)
	}
}

// TestDropVarFailedHalfWayCommits pins that a drop which fails part-way
// leaves a store that can still commit. The extent's member list holds,
// half-way along, a member planted with no directory entry, so the drop
// deletes the members before it and fails there. The drop used to mark
// the extent as dropped before deleting anything; the extent then
// stayed live with that mark, and every later commit failed.
func TestDropVarFailedHalfWayCommits(t *testing.T) {
	f := newFixture(t)
	s := f.store
	temp, err := f.cat.CreateVar("Temp", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: f.person}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitVar(temp); err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		if i == n/2 {
			if err := s.plantOrphan("Temp", f.newPerson("orphan", 0)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Insert("Temp", f.newPerson(fmt.Sprintf("t%02d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropVar(temp); err == nil {
		t.Fatal("DropVar deleted a member with no directory entry")
	}
	if left, _ := s.ExtentLen("Temp"); left != n/2+1 {
		t.Fatalf("%d members left, want the orphan and the %d after it", left, n/2)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("commit after the failed drop: %v", err)
	}
	max := s.gen.Next()
	if live, snap := render(s, max, nil), render(s.Snapshot(), max, nil); live != snap {
		t.Fatalf("snapshot differs from the live store: %s", firstDiff(live, snap))
	}
	if bad := s.CheckConsistency(); len(bad) != 1 || !strings.Contains(bad[0], "no directory entry") {
		t.Fatalf("fsck after the failed drop: %q, want the planted member alone", bad)
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
