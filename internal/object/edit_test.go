package object

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// withSets adds the value set Nums, of few distinct values so that
// equal elements are common, and the singleton Solo, which owns a
// component.
func (f *fixture) withSets(t *testing.T) {
	t.Helper()
	for _, v := range []struct {
		name string
		comp types.Component
	}{
		{"Nums", types.Component{Mode: types.Own, Type: &types.Set{Elem: types.Component{Mode: types.Own, Type: types.Int4}}}},
		{"Solo", types.Component{Mode: types.OwnRef, Type: f.person}},
	} {
		cv, err := f.cat.CreateVar(v.name, v.comp)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.store.InitVar(cv); err != nil {
			t.Fatal(err)
		}
	}
}

// state renders a store's published snapshot and OID generator.
func state(t *testing.T, s *Store) string {
	t.Helper()
	sn := s.Snapshot()
	objs, err := sn.ExportObjects()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, o := range objs {
		fmt.Fprintf(&b, "OBJ %s %d %d %x\n", o.Extent, o.OID, o.Owner, o.Data)
	}
	elems, err := sn.ExportElems("Nums")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range elems {
		fmt.Fprintf(&b, "ELEM %x\n", e)
	}
	v, err := sn.ExportVar("Solo")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "VAR %x\nOIDS %d\n", v, sn.LastOID())
	return b.String()
}

// TestDiffRebuildsTheLaterSnapshot: random windows of object, element
// and variable writes, with Views between them that seal chunks part
// way, are diffed against the snapshot they started from; the edit,
// applied to a twin of that snapshot, publishes the window's snapshot
// exactly, and leaves the twin's generator where the window's is.
func TestDiffRebuildsTheLaterSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		a, b := newFixture(t), newFixture(t)
		a.withSets(t)
		b.withSets(t)
		for _, f := range []*fixture{a, b} {
			for i := 0; i < 300; i++ {
				p := f.newPerson(fmt.Sprintf("p%d", i), int64(i%50))
				if i%7 == 0 {
					p.Set("kids", &value.Set{Elems: []value.Value{f.newPerson("kid", 1)}})
				}
				if _, err := f.store.Insert("People", p); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 700; i++ {
				if err := f.store.InsertElem("Nums", value.NewInt(int64(i%5))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.store.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		was := a.store.Snapshot()
		rng := rand.New(rand.NewSource(seed))
		s := a.store
		for k := 0; k < 60; k++ {
			view, err := s.View()
			if err != nil {
				t.Fatal(err)
			}
			var ids []oid.OID
			view.ScanExtent("People", func(id oid.OID, _ *value.Tuple) error { ids = append(ids, id); return nil })
			switch rng.Intn(6) {
			case 0:
				p := a.newPerson("new", int64(rng.Intn(50)))
				if rng.Intn(2) == 0 {
					p.Set("kids", &value.Set{Elems: []value.Value{a.newPerson("kid", 2)}})
				}
				_, err = s.Insert("People", p)
			case 1:
				err = s.Delete(ids[rng.Intn(len(ids))])
			case 2:
				id := ids[rng.Intn(len(ids))]
				tv, _, _ := s.Get(id)
				tv.Set("age", value.NewInt(int64(rng.Intn(50))))
				tv.Set("kids", &value.Set{})
				err = s.Update(id, tv)
			case 3:
				for n := rng.Intn(300); n > 0 && err == nil; n-- {
					err = s.InsertElem("Nums", value.NewInt(int64(rng.Intn(5))))
				}
			case 4:
				var pos []int
				view.ScanElems("Nums", func(p int, _ value.Value) error { pos = append(pos, p); return nil })
				rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
				for _, p := range pos[:min(len(pos), rng.Intn(300))] {
					if err = s.DeleteElem("Nums", p); err != nil {
						break
					}
				}
			default:
				err = s.SetVar("Solo", a.newPerson(fmt.Sprintf("solo%d", k), 3))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		is, err := s.View()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		apply := func(line []byte) error { _, err := b.store.ApplyLine(string(line), false); return err }
		if err := Diff(was, is, apply); err != nil {
			t.Fatalf("seed %d: applying the edit: %v", seed, err)
		}
		if _, err := b.store.Commit(); err != nil {
			t.Fatal(err)
		}
		if got, want := state(t, b.store), state(t, a.store); got != want {
			t.Fatalf("seed %d: the edit rebuilt another state", seed)
		}
		if bad := b.store.CheckConsistency(); len(bad) != 0 {
			t.Fatalf("seed %d: fsck after the edit: %v", seed, bad)
		}
	}
}

// TestEncodeBufferNotRetained: a write whose encoding outgrows
// maxEncBuf does not leave the store holding the buffer, refused (here:
// aborted, as the database layer aborts a write the log cannot hold) or
// not.
func TestEncodeBufferNotRetained(t *testing.T) {
	f := newFixture(t)
	if _, err := f.store.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.store.Insert("People", f.newPerson(strings.Repeat("x", 1<<20), 1)); err != nil {
		t.Fatal(err)
	}
	f.store.Abort()
	if c := cap(f.store.enc); c > maxEncBuf {
		t.Fatalf("the store keeps a %d-byte encoding buffer after a 1 MiB write", c)
	}
	if _, err := f.store.Insert("People", f.newPerson("small", 1)); err != nil {
		t.Fatal(err)
	}
	if c := cap(f.store.enc); c == 0 || c > maxEncBuf {
		t.Fatalf("encoding buffer of %d bytes after a small write", c)
	}
}
