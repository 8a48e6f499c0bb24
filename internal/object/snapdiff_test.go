package object

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// storeView is what the live store and a snapshot both offer; render
// reads all of it, so "the snapshot is the store at that version" is
// one string comparison.
type storeView interface {
	IsObjectExtent(name string) bool
	IsElemExtent(name string) bool
	ScanExtent(extent string, fn func(id oid.OID, tv *value.Tuple) error) error
	ExtentLen(extent string) (int, error)
	ScanElems(extent string, fn func(pos int, v value.Value) error) error
	ElemLen(extent string) (int, error)
	Get(id oid.OID) (*value.Tuple, bool, error)
	Exists(id oid.OID) bool
	GetVar(name string) (value.Value, error)
	IndexLookup(ix *catalog.Index, lo, hi []byte, incLo, incHi bool) []oid.OID
	ExportObjects() ([]ExportObject, error)
	ExportElems(extent string) ([][]byte, error)
}

var (
	_ storeView = (*Store)(nil)
	_ storeView = (*Snapshot)(nil)
)

// render reads everything a view holds, in the order the view gives it,
// into one line per fact. maxOID bounds the Get sweep, which covers
// deleted and never-published ids as well as live ones; ix is nil while
// the index does not exist.
func render(v storeView, maxOID oid.OID, ix *catalog.Index) string {
	var b strings.Builder
	for _, ext := range []string{"People", "Temp"} {
		if !v.IsObjectExtent(ext) {
			fmt.Fprintf(&b, "extent %s absent\n", ext)
			continue
		}
		n, err := v.ExtentLen(ext)
		fmt.Fprintf(&b, "extent %s len=%d err=%v\n", ext, n, err)
		var ids []oid.OID
		err = v.ScanExtent(ext, func(id oid.OID, tv *value.Tuple) error {
			ids = append(ids, id)
			fmt.Fprintf(&b, "  %s %s\n", id, tv)
			return nil
		})
		fmt.Fprintf(&b, "  scanned=%d err=%v\n", len(ids), err)
		if n != len(ids) {
			fmt.Fprintf(&b, "  ExtentLen %d disagrees with the scan on %T\n", n, v)
		}
	}
	if v.IsElemExtent("Wanted") {
		n, err := v.ElemLen("Wanted")
		fmt.Fprintf(&b, "elems Wanted len=%d err=%v\n", n, err)
		err = v.ScanElems("Wanted", func(pos int, e value.Value) error {
			fmt.Fprintf(&b, "  %d %s\n", pos, e)
			n--
			return nil
		})
		if n != 0 {
			fmt.Fprintf(&b, "  ElemLen is off by %d from the scan on %T\n", n, v)
		}
		enc, eerr := v.ExportElems("Wanted")
		fmt.Fprintf(&b, "  err=%v export=%x err=%v\n", err, enc, eerr)
	}
	star, err := v.GetVar("Star")
	fmt.Fprintf(&b, "var Star %v err=%v\n", star, err)
	for id := oid.OID(1); id <= maxOID; id++ {
		tv, ok, err := v.Get(id)
		if ok != v.Exists(id) {
			fmt.Fprintf(&b, "get %s: Get and Exists disagree\n", id)
		}
		if ok || err != nil {
			fmt.Fprintf(&b, "get %s %s err=%v\n", id, tv, err)
		}
	}
	objs, err := v.ExportObjects()
	fmt.Fprintf(&b, "export n=%d err=%v\n", len(objs), err)
	for _, o := range objs {
		fmt.Fprintf(&b, "  %q %s owner=%s %x\n", o.Extent, o.OID, o.Owner, o.Data)
	}
	if ix != nil {
		fmt.Fprintf(&b, "index %v\n", v.IndexLookup(ix, nil, nil, true, true))
		lo, _ := keyEncodeInt(30)
		hi, _ := keyEncodeInt(50)
		fmt.Fprintf(&b, "index (30,50] %v\n", v.IndexLookup(ix, lo, hi, false, true))
	}
	return b.String()
}

// firstDiff names the first line two renderings differ in.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("line %d:\n  live: %s\n  snap: %s", i+1, x, y)
		}
	}
	return "no difference"
}

// diffRun drives one seeded sequence of every kind of mutation through a
// store, committing every few operations, and after each commit holds
// the new snapshot against the live store and every earlier snapshot
// against what it read when it was taken.
type diffRun struct {
	t    *testing.T
	f    *fixture
	rng  *rand.Rand
	ix   *catalog.Index
	live []oid.OID // members of People
	temp *catalog.Variable

	moves, reuses int // members a freeze re-pointed, and inserts into the chunk a delete just left a hole in
}

type pinned struct {
	sn     *Snapshot
	maxOID oid.OID
	ix     *catalog.Index
	want   string
}

func (r *diffRun) maxOID() oid.OID { return r.f.store.gen.Next() }

// person makes a Person whose record is about size bytes: a few dozen to
// a page fill up pages and spill onto new ones, more than a page goes to
// an overflow chain.
func (r *diffRun) person(size int) *value.Tuple {
	tv := r.f.newPerson(strings.Repeat("n", size), int64(r.rng.Intn(80)))
	if r.rng.Intn(3) == 0 {
		kids := &value.Set{}
		for k := r.rng.Intn(3); k >= 0; k-- {
			kids.Elems = append(kids.Elems, r.f.newPerson("kid", int64(k)))
		}
		tv.Set("kids", kids)
	}
	if len(r.live) > 0 && r.rng.Intn(2) == 0 {
		tv.Set("friend", value.Ref{OID: r.live[r.rng.Intn(len(r.live))], Type: "Person"})
	}
	return tv
}

func (r *diffRun) size() int {
	switch r.rng.Intn(10) {
	case 0:
		return 5000 + r.rng.Intn(4000) // overflow chain
	case 1, 2:
		return 500 + r.rng.Intn(1500)
	}
	return 10 + r.rng.Intn(200)
}

func (r *diffRun) step() {
	t, s := r.t, r.f.store
	pick := func() (int, oid.OID) {
		i := r.rng.Intn(len(r.live))
		return i, r.live[i]
	}
	switch op := r.rng.Intn(25); {
	case op < 6 || len(r.live) == 0: // insert
		id, err := s.Insert("People", r.person(r.size()))
		if err != nil {
			t.Fatal(err)
		}
		r.live = append(r.live, id)
	case op < 9: // update in place: same size or smaller
		_, id := pick()
		tv, _, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tv.Set("age", value.NewInt(int64(r.rng.Intn(80))))
		if err := s.Update(id, tv); err != nil {
			t.Fatal(err)
		}
	case op < 12: // growing update: the record moves once its page is full
		_, id := pick()
		tv, _, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		name, _ := value.AsString(tv.Get("name"))
		if len(name) > 6000 {
			name = name[:20] // back from an overflow chain to an inline record
		} else {
			name += strings.Repeat("g", 1+r.rng.Intn(3*len(name)+50))
		}
		tv.Set("name", value.NewStr(name))
		if r.rng.Intn(4) == 0 {
			tv.Set("kids", &value.Set{}) // and drops its components
		}
		if err := s.Update(id, tv); err != nil {
			t.Fatal(err)
		}
	case op < 15: // delete
		i, id := pick()
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		r.live = append(r.live[:i], r.live[i+1:]...)
	case op < 18: // a large growing update, which keeps the member's place
		_, id := pick()
		tv, _, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tv.Set("name", value.NewStr(strings.Repeat("r", 2500+r.rng.Intn(1500))))
		was := s.ridOf(id)
		if err := s.Update(id, tv); err != nil {
			t.Fatal(err)
		}
		if s.ridOf(id) != was {
			t.Fatalf("an update moved %s from %d to %d", id, was, s.ridOf(id))
		}
	case op < 20: // delete a member of the last chunk, then insert into the chunk it left a hole in
		last := (len(s.extents["People"].members.chunks) - 1) * chunkLen
		at := -1
		for i, id := range r.live {
			if s.ridOf(id) >= last {
				at = i
			}
		}
		if at < 0 {
			return
		}
		id := r.live[at]
		was := s.ridOf(id)
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		r.live = append(r.live[:at], r.live[at+1:]...)
		nid, err := s.Insert("People", r.f.newPerson("reuse", int64(r.rng.Intn(80))))
		if err != nil {
			t.Fatal(err)
		}
		r.live = append(r.live, nid)
		if s.ridOf(nid)/chunkLen == was/chunkLen {
			r.reuses++
		}
	case op < 21: // element insert
		_, id := pick()
		if err := s.InsertElem("Wanted", value.Ref{OID: id, Type: "Person"}); err != nil {
			t.Fatal(err)
		}
	case op < 22: // element delete
		var poss []int
		s.ScanElems("Wanted", func(pos int, _ value.Value) error {
			poss = append(poss, pos)
			return nil
		})
		if len(poss) > 0 {
			if err := s.DeleteElem("Wanted", poss[r.rng.Intn(len(poss))]); err != nil {
				t.Fatal(err)
			}
		}
	case op < 23: // variable
		_, id := pick()
		if err := s.SetVar("Star", value.Ref{OID: id, Type: "Person"}); err != nil {
			t.Fatal(err)
		}
	default: // drop Temp, and half the time bring it back refilled in the same window
		if r.temp != nil {
			if err := s.DropVar(r.temp); err != nil {
				t.Fatal(err)
			}
			if err := r.f.cat.DropVar("Temp"); err != nil {
				t.Fatal(err)
			}
			r.temp = nil
			if r.rng.Intn(2) == 0 {
				return
			}
		}
		v, err := r.f.cat.CreateVar("Temp", types.Component{Mode: types.Own, Type: &types.Set{
			Elem: types.Component{Mode: types.Own, Type: r.f.person}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InitVar(v); err != nil {
			t.Fatal(err)
		}
		r.temp = v
		for n := r.rng.Intn(40); n > 0; n-- {
			if _, err := s.Insert("Temp", r.f.newPerson("temp", int64(n))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func runSnapshotDiff(t *testing.T, seed int64, ops int) {
	f := newFixture(t)
	r := &diffRun{t: t, f: f, rng: rand.New(rand.NewSource(seed))}
	s := f.store
	wanted, err := f.cat.CreateVar("Wanted", types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.RefTo, Type: f.person}}})
	if err != nil {
		t.Fatal(err)
	}
	star, err := f.cat.CreateVar("Star", types.Component{Mode: types.RefTo, Type: f.person})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*catalog.Variable{wanted, star} {
		if err := s.InitVar(v); err != nil {
			t.Fatal(err)
		}
	}

	// A reader that never takes the write lock: it reads whatever
	// snapshot is current, twice, and the two readings must agree. Under
	// -race it also reports any write to a node a snapshot can reach.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := s.Snapshot()
			if a, b := render(sn, 64, nil), render(sn, 64, nil); a != b {
				t.Errorf("seed %d: one snapshot read twice differs: %s", seed, firstDiff(a, b))
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	var pins []pinned
	check := func() {
		was := map[oid.OID]int{}
		for _, id := range r.live {
			was[id] = s.ridOf(id)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, id := range r.live {
			if s.ridOf(id) != was[id] {
				r.moves++
			}
		}
		max := r.maxOID()
		live := render(s, max, r.ix)
		sn := s.Snapshot()
		if got := render(sn, max, r.ix); got != live {
			t.Fatalf("seed %d, version %d: snapshot differs from the live store: %s", seed, sn.Version(), firstDiff(live, got))
		}
		if bad := s.CheckConsistency(); len(bad) > 0 {
			t.Fatalf("seed %d: store inconsistent: %v", seed, bad)
		}
		pins = append(pins, pinned{sn: sn, maxOID: max, ix: r.ix, want: live})
	}
	for i := 0; i < ops; i++ {
		r.step()
		if i == ops/3 {
			// Half-way DDL: the index is backfilled over live pages.
			ix, err := s.BuildIndex("people_age", "People", []string{"age"}, false)
			if err != nil {
				t.Fatal(err)
			}
			r.ix = ix
		}
		if r.rng.Intn(4) == 0 {
			check()
		}
	}
	check()
	for _, p := range pins {
		if got := render(p.sn, p.maxOID, p.ix); got != p.want {
			t.Fatalf("seed %d: snapshot of version %d changed after later commits: %s", seed, p.sn.Version(), firstDiff(p.want, got))
		}
	}
	if r.moves == 0 || r.reuses == 0 {
		t.Errorf("seed %d: %d members re-pointed and %d holes refilled; the mix should exercise both", seed, r.moves, r.reuses)
	}
}

// TestSnapshotMatchesLiveStore is the differential test of the snapshot
// layer: whatever sequence of mutations and commits, a snapshot reads
// exactly what the live store read at its commit — scan order, tuples,
// lengths, lookups of live and deleted ids, index probes, and an export
// that is byte for byte the live export — and goes on reading that
// however many commits follow.
func TestSnapshotMatchesLiveStore(t *testing.T) {
	// step draws from 25 values, 5 of them for large growing updates and
	// hole refills; a run a quarter longer than one over the other 20 alone
	// keeps every other kind of op, the drop/re-create included, as
	// frequent as it is there.
	ops := 375
	if testing.Short() {
		ops = 150
	}
	for seed := int64(1); seed <= 4; seed++ {
		runSnapshotDiff(t, seed, ops)
	}
}
