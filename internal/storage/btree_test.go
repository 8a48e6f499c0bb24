package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func key(n int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	return b[:]
}

func TestBTreeInsertLookup(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 1000; i++ {
		if !bt.Insert(key(i), uint64(i*10)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if bt.Len() != 1000 {
		t.Errorf("Len = %d", bt.Len())
	}
	if bt.Height() < 2 {
		t.Error("tree never split")
	}
	for i := 0; i < 1000; i++ {
		found := false
		bt.Lookup(key(i), func(v uint64) bool {
			found = v == uint64(i*10)
			return false
		})
		if !found {
			t.Fatalf("lookup %d failed", i)
		}
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	bt := NewBTree()
	for v := uint64(0); v < 100; v++ {
		bt.Insert(key(7), v)
	}
	// Exact duplicates are rejected.
	if bt.Insert(key(7), 5) {
		t.Error("exact duplicate accepted")
	}
	n := 0
	bt.Lookup(key(7), func(uint64) bool { n++; return true })
	if n != 100 {
		t.Errorf("duplicate key lookup found %d", n)
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 500; i++ {
		bt.Insert(key(i), uint64(i))
	}
	for i := 0; i < 500; i += 2 {
		if !bt.Delete(key(i), uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if bt.Delete(key(0), 0) {
		t.Error("double delete succeeded")
	}
	if bt.Len() != 250 {
		t.Errorf("Len after deletes = %d", bt.Len())
	}
	for i := 0; i < 500; i++ {
		found := false
		bt.Lookup(key(i), func(uint64) bool { found = true; return false })
		if found != (i%2 == 1) {
			t.Fatalf("key %d presence = %v", i, found)
		}
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(key(i), uint64(i))
	}
	collect := func(lo, hi []byte, incLo, incHi bool) []uint64 {
		var out []uint64
		bt.Range(lo, hi, incLo, incHi, func(_ []byte, v uint64) bool {
			out = append(out, v)
			return true
		})
		return out
	}
	got := collect(key(10), key(20), true, true)
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Errorf("[10,20] = %v", got)
	}
	got = collect(key(10), key(20), false, false)
	if len(got) != 9 || got[0] != 11 || got[8] != 19 {
		t.Errorf("(10,20) = %v", got)
	}
	got = collect(nil, key(5), true, true)
	if len(got) != 6 {
		t.Errorf("(-inf,5] = %v", got)
	}
	got = collect(key(95), nil, true, true)
	if len(got) != 5 {
		t.Errorf("[95,inf) = %v", got)
	}
	got = collect(nil, nil, true, true)
	if len(got) != 100 {
		t.Errorf("full range = %d", len(got))
	}
	// Early termination.
	n := 0
	bt.Range(nil, nil, true, true, func(_ []byte, _ uint64) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestBTreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bt := NewBTree()
	ref := map[int]bool{}
	for op := 0; op < 20000; op++ {
		k := rng.Intn(2000)
		if rng.Intn(3) == 0 {
			bt.Delete(key(k), uint64(k))
			delete(ref, k)
		} else {
			bt.Insert(key(k), uint64(k))
			ref[k] = true
		}
	}
	if bt.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", bt.Len(), len(ref))
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := 0
	prev := -1
	bt.Range(nil, nil, true, true, func(k []byte, v uint64) bool {
		n := int(binary.BigEndian.Uint64(k))
		if n <= prev {
			t.Fatalf("out of order: %d after %d", n, prev)
		}
		prev = n
		if !ref[n] {
			t.Fatalf("phantom key %d", n)
		}
		got++
		return true
	})
	if got != len(ref) {
		t.Fatalf("range saw %d of %d", got, len(ref))
	}
}

// Property: after inserting any set of keys, an in-order walk returns
// them sorted and the invariants hold.
func TestBTreeSortedProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		bt := NewBTree()
		ref := map[uint16]bool{}
		for _, k := range keys {
			bt.Insert(key(int(k)), uint64(k))
			ref[k] = true
		}
		if bt.CheckInvariants() != nil {
			return false
		}
		prev := -1
		ok := true
		bt.Range(nil, nil, true, true, func(k []byte, _ uint64) bool {
			n := int(binary.BigEndian.Uint64(k))
			if n <= prev || !ref[uint16(n)] {
				ok = false
				return false
			}
			prev = n
			return true
		})
		return ok && bt.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// pair is one (key, val) of a model.
type pair struct {
	key []byte
	val uint64
}

func cmpPair(a, b pair) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.val, b.val)
}

// modelTree pairs a tree with the sorted slice it must equal.
type modelTree struct {
	t *BTree
	m []pair
}

// find returns where e is or would be in the model, and whether it is.
func (mt *modelTree) find(e pair) (int, bool) {
	return slices.BinarySearchFunc(mt.m, e, cmpPair)
}

func (mt *modelTree) insert(k []byte, v uint64) {
	e := pair{key: k, val: v}
	i, had := mt.find(e)
	if mt.t.Insert(k, v) == had {
		panic("Insert disagrees with the model on whether the entry was new")
	}
	if !had {
		mt.m = slices.Insert(mt.m, i, e)
	}
}

func (mt *modelTree) delete(k []byte, v uint64) {
	i, had := mt.find(pair{key: k, val: v})
	if mt.t.Delete(k, v) != had {
		panic("Delete disagrees with the model on whether the entry existed")
	}
	if had {
		mt.m = append(mt.m[:i:i], mt.m[i+1:]...)
	}
}

// check compares a bounded scan of the tree with the same cut of the
// model.
func (mt *modelTree) check(t *testing.T, lo, hi []byte, incLo, incHi bool) {
	t.Helper()
	var want []pair
	for _, e := range mt.m {
		if lo != nil {
			if c := bytes.Compare(e.key, lo); c < 0 || (c == 0 && !incLo) {
				continue
			}
		}
		if hi != nil {
			if c := bytes.Compare(e.key, hi); c > 0 || (c == 0 && !incHi) {
				continue
			}
		}
		want = append(want, e)
	}
	i := 0
	mt.t.Range(lo, hi, incLo, incHi, func(k []byte, v uint64) bool {
		if i >= len(want) || !bytes.Equal(k, want[i].key) || v != want[i].val {
			t.Fatalf("Range(%x, %x, %v, %v): entry %d is (%x, %d), model disagrees", lo, hi, incLo, incHi, i, k, v)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("Range(%x, %x, %v, %v) returned %d entries, model has %d", lo, hi, incLo, incHi, i, len(want))
	}
}

// TestBTreePersistence interleaves Clone, Insert and Delete over a
// family of trees that share nodes. Every tree must go on reading as its
// own model says — in particular one that is never written again after
// its clone is (a tree frozen into a snapshot) — and keep its invariants.
func TestBTreePersistence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		family := []*modelTree{{t: NewBTree()}}
		frozen := map[int]bool{}
		randKey := func() ([]byte, uint64) {
			// Few distinct keys, so equal keys with distinct values
			// straddle leaves.
			return key(rng.Intn(400)), uint64(rng.Intn(6))
		}
		for op := 0; op < 6000; op++ {
			i := rng.Intn(len(family))
			mt := family[i]
			switch r := rng.Intn(100); {
			case r < 3 && len(family) < 12:
				family = append(family, &modelTree{t: mt.t.Clone(), m: slices.Clone(mt.m)})
				if rng.Intn(2) == 0 {
					frozen[i] = true
				}
			case frozen[i]:
			case r < 65:
				k, v := randKey()
				mt.insert(k, v)
			default:
				k, v := randKey()
				if len(mt.m) > 0 && rng.Intn(2) == 0 {
					e := mt.m[rng.Intn(len(mt.m))]
					k, v = e.key, e.val
				}
				mt.delete(k, v)
			}
			if op%500 != 499 {
				continue
			}
			for _, mt := range family {
				if err := mt.t.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if mt.t.Len() != len(mt.m) {
					t.Fatalf("seed %d op %d: Len %d, model %d", seed, op, mt.t.Len(), len(mt.m))
				}
				mt.check(t, nil, nil, true, true)
				lo, hi := key(rng.Intn(400)), key(rng.Intn(400))
				mt.check(t, lo, hi, rng.Intn(2) == 0, rng.Intn(2) == 0)
				mt.check(t, lo, nil, false, true)
				mt.check(t, nil, hi, true, false)
				mt.check(t, lo, lo, true, true)
			}
		}
	}
}

// TestBTreeCloneInsertAllocs pins the cost of diverging from a clone:
// one Insert copies the nodes on one root-to-leaf path, so its
// allocations follow the height of the tree, not its size.
func TestBTreeCloneInsertAllocs(t *testing.T) {
	for _, n := range []int{1000, 200000} {
		bt := NewBTree()
		for i := 0; i < n; i++ {
			bt.Insert(key(2*i), uint64(i))
		}
		next := 1
		allocs := testing.AllocsPerRun(50, func() {
			c := bt.Clone()
			c.Insert(key(next), 0) // odd: a new entry every run
			next += 2 * (n / 64)
		})
		// Clone: the tree and two epochs. Insert: the key, a struct and
		// its slices per copied node (2 for the leaf, 3 per inner node),
		// and as much again at most for the sibling of a split.
		h := bt.Height()
		if limit := float64(3 + 1 + 2*(2+3*(h-1))); allocs > limit {
			t.Errorf("%d entries, height %d: Clone+Insert made %.0f allocations, want at most %.0f", n, h, allocs, limit)
		}
	}
}

func BenchmarkBTreeClone(b *testing.B) {
	bt := NewBTree()
	for i := 0; i < 20000; i++ {
		bt.Insert(key(2*i), uint64(i))
	}
	b.Run("Clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchTree = bt.Clone()
		}
	})
	b.Run("CloneInsert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchTree = bt.Clone()
			benchTree.Insert(key(2*(i%20000)+1), 0)
		}
	})
}

var benchTree *BTree

// TestBTreeBuildMatchesInserts: a tree Build makes from a set of pairs
// and one Insert makes from the same pairs, one at a time, hold the same
// entries in the same order and both keep their invariants, and go on
// doing so under further random inserts and deletes, on themselves and
// on clones of them. The sets cover no pair, one, exact duplicates,
// equal keys with distinct vals, and 64·64+1 pairs (a third level).
func TestBTreeBuildMatchesInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randPairs := func(n, keys, vals int) []pair {
		ps := make([]pair, n)
		for i := range ps {
			// Variable-length keys, so arena offsets are not a multiple
			// of one length.
			k := key(rng.Intn(keys))[rng.Intn(3):]
			ps[i] = pair{key: k, val: uint64(rng.Intn(vals))}
		}
		return ps
	}
	cases := []struct {
		name  string
		pairs []pair
	}{
		{"empty", nil},
		{"one", []pair{{key(5), 1}}},
		{"exact duplicates", []pair{{key(5), 1}, {key(5), 1}, {key(2), 0}, {key(5), 1}}},
		{"equal keys, distinct vals", randPairs(300, 3, 1000)},
		{"64*64+1", randPairs(btreeOrder*btreeOrder+1, 1<<20, 1<<20)},
		{"random", randPairs(2500, 400, 6)},
	}
	for _, c := range cases {
		var b Builder
		inc := &modelTree{t: NewBTree()}
		for _, p := range c.pairs {
			b.Add(p.key, p.val)
			if _, had := inc.find(p); !had {
				inc.insert(p.key, p.val)
			} else if inc.t.Insert(p.key, p.val) {
				t.Fatalf("%s: an exact duplicate inserted", c.name)
			}
		}
		bt, err := b.Build(false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		built := &modelTree{t: bt, m: slices.Clone(inc.m)}
		family := []*modelTree{built, inc}
		for round := 0; round < 4; round++ {
			for _, mt := range family {
				if err := mt.t.CheckInvariants(); err != nil {
					t.Fatalf("%s, round %d: %v", c.name, round, err)
				}
				if mt.t.Len() != len(mt.m) {
					t.Fatalf("%s, round %d: Len %d, model %d", c.name, round, mt.t.Len(), len(mt.m))
				}
				mt.check(t, nil, nil, true, true)
				lo, hi := key(rng.Intn(400)), key(rng.Intn(400))
				mt.check(t, lo, hi, rng.Intn(2) == 0, rng.Intn(2) == 0)
				mt.check(t, lo, nil, false, true)
			}
			// Every tree, the built one and its clones, is written the
			// same way as its incremental twin.
			n := len(family)
			for i := 0; i < n; i += 2 {
				if rng.Intn(2) == 0 {
					for _, j := range []int{i, i + 1} {
						family = append(family, &modelTree{t: family[j].t.Clone(), m: slices.Clone(family[j].m)})
					}
				}
			}
			for op := 0; op < 500; op++ {
				k, v := key(rng.Intn(400))[rng.Intn(3):], uint64(rng.Intn(6))
				del := rng.Intn(3) == 0
				for i := range family {
					if del {
						family[i].delete(k, v)
					} else {
						family[i].insert(k, v)
					}
				}
			}
		}
	}
}

// TestBTreeBuildUnique: Build with unique set refuses two entries with
// one key, and accepts distinct keys (equal keys that are exact
// duplicates are one entry, as Insert makes them).
func TestBTreeBuildUnique(t *testing.T) {
	var b Builder
	for i := 0; i < 500; i++ {
		b.Add(key(i), uint64(i))
	}
	b.Add(key(250), 9)
	if _, err := b.Build(true); err != ErrDuplicateKey {
		t.Fatalf("Build(unique) over a duplicate key: %v, want ErrDuplicateKey", err)
	}
	for i := 0; i < 500; i++ {
		b.Add(key(i), uint64(i))
	}
	bt, err := b.Build(true)
	if err != nil || bt.Len() != 500 {
		t.Fatalf("Build(unique) over distinct keys: %v, %d entries", err, bt.Len())
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeBuildNodes: a built tree makes a few heap objects per node,
// not one per entry, and its leaves are full: 20 000 entries in 313
// leaves under 5 inner nodes and a root.
func TestBTreeBuildNodes(t *testing.T) {
	var b Builder
	for i := 0; i < 20000; i++ {
		b.Add(key(i), uint64(i))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	bt, err := b.Build(false)
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs - before
	if err != nil {
		t.Fatal(err)
	}
	leaves := (20000 + btreeOrder - 1) / btreeOrder
	if bt.Height() != 3 {
		t.Errorf("height %d, want 3", bt.Height())
	}
	// A leaf is one object, its entries and keys runs of one array and
	// one arena; an inner node is a struct, its entries and its arena.
	// The rest is a few objects per level and the tree itself.
	if limit := uint64(leaves + 3*6 + 16); allocs > limit {
		t.Errorf("Build of 20 000 entries made %d allocations, want at most %d (%d leaves)", allocs, limit, leaves)
	}
	t.Logf("%d allocations for %d leaves", allocs, leaves)
}

// TestBTreeRangeKeysStayValid: a key Range hands out keeps its bytes
// while the tree is written: inserts that compact and split its leaf,
// and deletes.
func TestBTreeRangeKeysStayValid(t *testing.T) {
	var b Builder
	for i := 0; i < 1000; i++ {
		b.Add(key(2*i), uint64(i))
	}
	bt, _ := b.Build(false)
	var held [][]byte
	bt.Range(nil, nil, true, true, func(k []byte, _ uint64) bool {
		held = append(held, k)
		return true
	})
	for i := 0; i < 1000; i++ {
		bt.Insert(key(2*i+1), 0)
		bt.Delete(key(2*i), uint64(i))
	}
	for i, k := range held {
		if !bytes.Equal(k, key(2*i)) {
			t.Fatalf("held key %d reads %x after the writes, want %x", i, k, key(2*i))
		}
	}
}
