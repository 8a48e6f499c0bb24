package object

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adt"
	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// bigFixture is newFixture with n people and a metrics registry
// attached, filled and committed.
func bigFixture(tb testing.TB, n int) (*fixture, *metrics.Registry) {
	tb.Helper()
	cat := catalog.New(adt.NewRegistry())
	f := &fixture{cat: cat, store: New(nil, cat)}
	f.definePeople(tb)
	reg := metrics.NewRegistry()
	f.store.SetMetrics(reg)
	for i := 0; i < n; i++ {
		if _, err := f.store.Insert("People", f.newPerson(fmt.Sprintf("emp-%06d", i), int64(i%80))); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := f.store.Commit(); err != nil {
		tb.Fatal(err)
	}
	return f, reg
}

// commitWork is what one commit did, in counts that repeat exactly.
type commitWork struct {
	objs, chunks uint64 // entries and member-list chunks sealed: the commit's own account
}

// oneRowCommit inserts one person with one kid — an extent member with
// a place in its member list and a component without one — and
// measures the commit that publishes them.
func oneRowCommit(tb testing.TB, f *fixture, reg *metrics.Registry, i int) commitWork {
	tb.Helper()
	p := f.newPerson(fmt.Sprintf("new-%06d", i), 30)
	p.Set("kids", &value.Set{Elems: []value.Value{f.newPerson("kid", 3)}})
	if _, err := f.store.Insert("People", p); err != nil {
		tb.Fatal(err)
	}
	return measureCommit(tb, f, reg)
}

// measureCommit commits and returns what the commit did.
func measureCommit(tb testing.TB, f *fixture, reg *metrics.Registry) commitWork {
	tb.Helper()
	sums := func() (objs, chunks uint64) {
		h := reg.Snapshot().Histograms
		return h["mvcc.commit.dirty_objs"].SumNS, h["mvcc.commit.dirty_chunks"].SumNS
	}
	o0, c0 := sums()
	if _, err := f.store.Commit(); err != nil {
		tb.Fatal(err)
	}
	o1, c1 := sums()
	return commitWork{objs: o1 - o0, chunks: c1 - c0}
}

// TestCommitWorkIndependentOfSize is the count-based form of "commit
// cost is proportional to the write": a one-row commit seals the same
// objects and the same member-list chunks on a store ten times the
// size, and none of 64 in a row differs from the rest (no periodic
// flatten, no extent re-scan when a chunk fills). Counts repeat
// exactly, so this can gate CI on a host whose clock cannot.
func TestCommitWorkIndependentOfSize(t *testing.T) {
	want := commitWork{objs: 2, chunks: 1} // person + kid; the tail chunk the person went to: the kid has no place in a list
	for _, n := range []int{2000, 20000} {
		f, reg := bigFixture(t, n)
		for i := 0; i < 64; i++ {
			if got := oneRowCommit(t, f, reg, i); got != want {
				t.Fatalf("%d people, commit %d: %+v, want %+v", n, i, got, want)
			}
		}
	}
}

// TestElemCommitsDecodeNothing: an element list is a working value, so
// sixty single-element commits to one set each decode nothing and seal
// no member-list chunk, however long the set has grown, and the
// snapshot then holds the sixty.
func TestElemCommitsDecodeNothing(t *testing.T) {
	f, reg := bigFixture(t, 10)
	v, err := f.cat.CreateVar("Ages", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: types.Int4}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.InitVar(v); err != nil {
		t.Fatal(err)
	}
	decoded := func() uint64 { return reg.Snapshot().Histograms["mvcc.commit.decoded"].SumNS }
	for i := 0; i < 60; i++ {
		if err := f.store.InsertElem("Ages", value.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
		before := decoded()
		if w := measureCommit(t, f, reg); w.chunks != 0 {
			t.Fatalf("commit %d: %+v, want no member-list chunk sealed", i, w)
		}
		if got := decoded() - before; got != 0 {
			t.Fatalf("commit %d decoded %d records, want 0", i, got)
		}
	}
	if n, _ := f.store.Snapshot().ElemLen("Ages"); n != 60 {
		t.Errorf("the snapshot holds %d elements, want 60", n)
	}
}

// TestRangeUpdateWorkIndependentOfSize is the count-based form of "a
// range write pays for its range": updating the k people of a name
// range probes k oids, and the commit seals those k objects and the same
// member-list chunks on a store ten times the size. The update changes an
// attribute no index covers, so it writes no B+-tree node: until the
// next commit the working name index still shares its root with the
// clone the last one published.
func TestRangeUpdateWorkIndependentOfSize(t *testing.T) {
	const k = 50
	lo, _ := codec.EncodeKey(value.NewStr("emp-000100"))
	hi, _ := codec.EncodeKey(value.NewStr(fmt.Sprintf("emp-%06d", 100+k)))
	var work []commitWork
	for _, n := range []int{2000, 20000} {
		f, reg := bigFixture(t, n)
		ix, err := f.store.BuildIndex("people_name", "People", []string{"name"}, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.store.Commit(); err != nil {
			t.Fatal(err)
		}
		published := f.store.Snapshot().indexes["people_name"]
		ids := f.store.IndexLookup(ix, lo, hi, true, false)
		if len(ids) != k {
			t.Fatalf("%d people: the probe yields %d oids, want %d", n, len(ids), k)
		}
		for _, id := range ids {
			tv, _, err := f.store.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			age, _ := value.AsInt(tv.Get("age"))
			tv.Set("age", value.NewInt(age+1))
			if err := f.store.Update(id, tv); err != nil {
				t.Fatal(err)
			}
		}
		if btreeRoot(ix.Tree) != btreeRoot(published) {
			t.Errorf("%d people: updating an unindexed attribute wrote the name index", n)
		}
		w := measureCommit(t, f, reg)
		if w.objs != k || w.chunks != 1 {
			t.Errorf("%d people: the commit did %+v, want %d objects in one chunk", n, w, k)
		}
		work = append(work, w)
	}
	if work[0] != work[1] {
		t.Errorf("commit work differs with store size: %+v at 2 000, %+v at 20 000", work[0], work[1])
	}
}

// btreeRoot returns the address of a B+-tree's root node. A tree and its
// Clone share the root until either is asked to Insert or Delete, which
// copies the root before anything else, so an unchanged address means
// the tree wrote no node.
func btreeRoot(t *storage.BTree) uintptr {
	return reflect.ValueOf(t).Elem().FieldByName("root").Elem().Pointer()
}

// BenchmarkStoreCommitOneRow times Commit alone after a one-row insert,
// on stores of 10^3 to 10^5 objects.
func BenchmarkStoreCommitOneRow(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			f, _ := bigFixture(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := f.store.Insert("People", f.newPerson("new", int64(i%80))); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := f.store.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
