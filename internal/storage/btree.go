package storage

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// BTree is an in-memory B+-tree mapping order-preserving encoded keys to
// uint64 payloads (OIDs). Duplicate keys are supported: entries are
// ordered by (key, value), so equal keys with distinct payloads coexist
// and range scans return them all.
//
// It is the secondary access method of the system — the EXODUS storage
// manager analogue kept node-resident rather than page-resident; the
// optimizer's method table points selective predicates at it instead of
// at a heap scan. Deletion is lazy (no rebalancing): removed entries
// vanish immediately, underfull nodes are tolerated, which preserves all
// ordering invariants while keeping the structure simple. This mirrors
// deferred reorganization in real systems.
//
// The tree is persistent by path copying. Every node records the epoch
// that allocated it, and a write copies each node on its root-to-leaf
// path that the tree's current epoch does not own before changing it.
// Clone starts a new epoch on both sides, so it is O(1): the two trees
// share every node that exists at that moment, neither can write to one,
// and each pays for its own divergence one path at a time. A node is
// therefore writable only by the epoch that allocated it, and only until
// that tree's next Clone. Leaves carry no sibling links (a copied leaf
// could not repair its left neighbour's); range scans keep the descent
// path instead.
//
// A node keeps its keys in one byte arena, each entry sixteen bytes
// (keyed). A tree over entries known up front is built in one go
// (Builder): sorted once, leaves full, a few heap objects per node
// rather than one per entry.
type BTree struct {
	root   node
	height int
	size   int
	epoch  *epoch
}

// epoch is an identity: two epochs are equal only when they are the same
// allocation. It has a field so that distinct epochs get distinct
// addresses.
type epoch struct{ _ byte }

const btreeOrder = 64 // max entries per leaf / max children per inner node

// entry is one (key, val) of a node: the key is the node's arena bytes
// [off, off+n). Sixteen bytes, where a slice header and a key
// allocation of its own cost 24 B and a heap object.
type entry struct {
	off, n uint32
	val    uint64
}

// keyed is a node's ordered entries and the byte arena that holds their
// keys. Arena bytes below len(arena) are never rewritten: an insert
// appends its key past them, a delete leaves its key's bytes behind, and
// an arena without room is replaced by a new one holding the live keys
// (compact), never reused. So a key handed out — by Range — stays valid
// for as long as its holder keeps it, whatever the tree does next, and
// two nodes may share an arena as long as neither appends into the
// other's bytes (a copy clips its capacity; see copyKeyed).
type keyed struct {
	arena   []byte
	entries []entry
}

// key returns entry i's key, capacity-clipped so that an append to it
// cannot write into the arena.
func (k *keyed) key(i int) []byte {
	e := k.entries[i]
	return k.arena[e.off : e.off+e.n : e.off+e.n]
}

// cmp compares entry i with (key, val).
func (k *keyed) cmp(i int, key []byte, val uint64) int {
	e := k.entries[i]
	if c := bytes.Compare(k.arena[e.off:e.off+e.n], key); c != 0 {
		return c
	}
	return cmp.Compare(e.val, val)
}

// insertAt adds (key, val) as entry i, copying the key into the arena.
func (k *keyed) insertAt(i int, key []byte, val uint64) {
	if len(k.arena)+len(key) > cap(k.arena) {
		k.compact(len(key), true)
	}
	e := entry{off: uint32(len(k.arena)), n: uint32(len(key)), val: val}
	k.arena = append(k.arena, key...)
	k.entries = append(k.entries, entry{})
	copy(k.entries[i+1:], k.entries[i:])
	k.entries[i] = e
}

// compact replaces the arena by a new one that holds the live keys
// alone, with room for extra more bytes and, when grow is set, a quarter
// to spare, so a run of inserts into one node reallocates its arena a
// logarithmic number of times. The entries, which the node owns, are
// re-pointed; an arena with no dead bytes is copied whole.
func (k *keyed) compact(extra int, grow bool) {
	live := 0
	for _, e := range k.entries {
		live += int(e.n)
	}
	need := live + extra
	if grow {
		need += need / 4
	}
	a := make([]byte, 0, need)
	if live == len(k.arena) {
		k.arena = append(a, k.arena...)
		return
	}
	for i := range k.entries {
		e := &k.entries[i]
		off := len(a)
		a = append(a, k.arena[e.off:e.off+e.n]...)
		e.off = uint32(off)
	}
	k.arena = a
}

// split moves the entries from i on into a new keyed with an arena of
// their own, exactly sized. The node keeps its arena: the moved keys are
// dead bytes in it until its next compaction.
func (k *keyed) split(i int) keyed {
	r := keyed{arena: k.arena, entries: append([]entry(nil), k.entries[i:]...)}
	r.compact(0, false)
	k.entries = k.entries[:i]
	return r
}

// remove deletes entry i; its key's bytes stay in the arena.
func (k *keyed) remove(i int) {
	k.entries = append(k.entries[:i], k.entries[i+1:]...)
}

type node interface {
	isNode()
}

type leaf struct {
	owner *epoch
	keyed
}

type inner struct {
	owner *epoch
	// entries[i] is the smallest (key,val) of children[i+1]'s subtree.
	keyed
	children []node
}

func (*leaf) isNode()  {}
func (*inner) isNode() {}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	ep := new(epoch)
	return &BTree{root: &leaf{owner: ep}, height: 1, epoch: ep}
}

// Len returns the number of entries.
func (t *BTree) Len() int { return t.size }

// Height returns the tree height (1 = a single leaf).
func (t *BTree) Height() int { return t.height }

// copyKeyed is a node's keyed for a copy the current epoch owns: the
// entries copied, with room for one more, and the arena shared with its
// capacity clipped, so the copy's first insert moves its keys to an
// arena of its own and never appends into the original's.
func copyKeyed(k keyed) keyed {
	return keyed{
		arena:   k.arena[:len(k.arena):len(k.arena)],
		entries: append(make([]entry, 0, len(k.entries)+1), k.entries...),
	}
}

// writable returns n itself when the current epoch allocated it, and
// otherwise a copy the current epoch owns (copyKeyed). The caller stores
// the result back where it found n.
func (t *BTree) writable(n node) node {
	switch nd := n.(type) {
	case *leaf:
		if nd.owner == t.epoch {
			return nd
		}
		return &leaf{owner: t.epoch, keyed: copyKeyed(nd.keyed)}
	case *inner:
		if nd.owner == t.epoch {
			return nd
		}
		return &inner{
			owner:    t.epoch,
			keyed:    copyKeyed(nd.keyed),
			children: append(make([]node, 0, len(nd.children)+1), nd.children...),
		}
	}
	panic("unreachable")
}

// Insert adds (key, val). Inserting an exact duplicate (same key and same
// val) is a no-op and reports false. The tree keeps a copy of key.
func (t *BTree) Insert(key []byte, val uint64) bool {
	t.root = t.writable(t.root)
	split, sepKey, sepVal, added := t.insert(t.root, key, val)
	if split != nil {
		r := &inner{owner: t.epoch, children: []node{t.root, split}}
		r.insertAt(0, sepKey, sepVal)
		t.root = r
		t.height++
	}
	if added {
		t.size++
	}
	return added
}

// insert descends through n, which the current epoch owns, returning a
// new right sibling and its separator when n split.
func (t *BTree) insert(n node, key []byte, val uint64) (node, []byte, uint64, bool) {
	switch nd := n.(type) {
	case *leaf:
		i := lowerBound(&nd.keyed, key, val)
		if i < len(nd.entries) && nd.cmp(i, key, val) == 0 {
			return nil, nil, 0, false // exact duplicate
		}
		nd.insertAt(i, key, val)
		if len(nd.entries) <= btreeOrder {
			return nil, nil, 0, true
		}
		right := &leaf{owner: t.epoch, keyed: nd.split(len(nd.entries) / 2)}
		return right, right.key(0), right.entries[0].val, true
	case *inner:
		i := childIndex(&nd.keyed, key, val)
		nd.children[i] = t.writable(nd.children[i])
		split, sepKey, sepVal, added := t.insert(nd.children[i], key, val)
		if split == nil {
			return nil, nil, 0, added
		}
		nd.insertAt(i, sepKey, sepVal)
		nd.children = append(nd.children, nil)
		copy(nd.children[i+2:], nd.children[i+1:])
		nd.children[i+1] = split
		if len(nd.children) <= btreeOrder {
			return nil, nil, 0, added
		}
		midK := len(nd.entries) / 2
		upKey, upVal := nd.key(midK), nd.entries[midK].val
		right := &inner{owner: t.epoch, children: append([]node(nil), nd.children[midK+1:]...)}
		right.keyed = nd.split(midK + 1)
		nd.entries = nd.entries[:midK]
		nd.children = nd.children[:midK+1]
		return right, upKey, upVal, added
	}
	panic("unreachable")
}

// lowerBound returns the first index whose entry is >= (key, val).
func lowerBound(k *keyed, key []byte, val uint64) int {
	lo, hi := 0, len(k.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if k.cmp(mid, key, val) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child of an inner node to descend into for
// (key, val).
func childIndex(k *keyed, key []byte, val uint64) int {
	lo, hi := 0, len(k.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if k.cmp(mid, key, val) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Delete removes (key, val); it reports whether the entry existed.
func (t *BTree) Delete(key []byte, val uint64) bool {
	t.root = t.writable(t.root)
	n := t.root
	for {
		switch nd := n.(type) {
		case *inner:
			i := childIndex(&nd.keyed, key, val)
			nd.children[i] = t.writable(nd.children[i])
			n = nd.children[i]
		case *leaf:
			i := lowerBound(&nd.keyed, key, val)
			if i >= len(nd.entries) || nd.cmp(i, key, val) != 0 {
				return false
			}
			nd.remove(i)
			t.size--
			return true
		}
	}
}

// Range calls fn for every (key, val) with lo <= key <= hi (nil bounds
// are unbounded, incLo/incHi control bound inclusion). Iteration stops
// early when fn returns false. A key fn is handed stays valid after fn
// returns (see keyed); fn must not write to it.
func (t *BTree) Range(lo, hi []byte, incLo, incHi bool, fn func(key []byte, val uint64) bool) {
	var startVal uint64
	if lo != nil && !incLo {
		// Skip all entries with key == lo: seek to (lo, max).
		startVal = ^uint64(0)
	}
	// path holds the inner nodes from the root down to the current leaf,
	// each with the index of the child the scan is in; advancing past a
	// leaf resumes from the deepest node that still has a child to its
	// right. Eight levels of order 64 hold 2^48 entries without growing
	// the backing array.
	type step struct {
		n *inner
		i int
	}
	path := make([]step, 0, 8)
	n := t.root
	seek := true                  // only the first descent is positioned by (lo, startVal)
	skipLo := lo != nil && !incLo // until the scan is past key == lo
	for {
		var l *leaf
		for l == nil {
			switch nd := n.(type) {
			case *inner:
				i := 0
				if seek {
					i = childIndex(&nd.keyed, lo, startVal)
				}
				path = append(path, step{nd, i})
				n = nd.children[i]
			case *leaf:
				l = nd
			}
		}
		i := 0
		if seek {
			i = lowerBound(&l.keyed, lo, startVal)
			seek = false
		}
		for ; i < len(l.entries); i++ {
			k := l.key(i)
			if skipLo {
				if bytes.Equal(k, lo) {
					continue // (lo, max), the one entry the seek could not pass
				}
				skipLo = false
			}
			if hi != nil {
				c := bytes.Compare(k, hi)
				if c > 0 || (c == 0 && !incHi) {
					return
				}
			}
			if !fn(k, l.entries[i].val) {
				return
			}
		}
		for len(path) > 0 && path[len(path)-1].i+1 >= len(path[len(path)-1].n.children) {
			path = path[:len(path)-1]
		}
		if len(path) == 0 {
			return
		}
		top := &path[len(path)-1]
		top.i++
		n = top.n.children[top.i]
	}
}

// Clone returns a tree with the same entries that is independent of this
// one from here on: the two share every node, and because both leave the
// epoch that allocated those nodes, the first write on either side
// copies the path it changes (see BTree). O(1). The store freezes an
// index into a snapshot this way at every publication.
func (t *BTree) Clone() *BTree {
	t.epoch = new(epoch)
	return &BTree{root: t.root, height: t.height, size: t.size, epoch: new(epoch)}
}

// Lookup calls fn for every value stored under exactly key.
func (t *BTree) Lookup(key []byte, fn func(val uint64) bool) {
	t.Range(key, key, true, true, func(_ []byte, v uint64) bool { return fn(v) })
}

// CheckInvariants validates ordering, separator correctness, uniform
// depth and that every entry's key lies inside its node's arena; it is
// used by the property-based tests.
func (t *BTree) CheckInvariants() error {
	depth := -1
	var prevKey []byte
	var prevVal uint64
	havePrev := false
	inArena := func(k *keyed) error {
		for _, e := range k.entries {
			if uint64(e.off)+uint64(e.n) > uint64(len(k.arena)) {
				return fmt.Errorf("entry [%d, +%d) outside an arena of %d bytes", e.off, e.n, len(k.arena))
			}
		}
		return nil
	}
	var walk func(n node, d int) error
	walk = func(n node, d int) error {
		switch nd := n.(type) {
		case *leaf:
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("non-uniform leaf depth: %d vs %d", depth, d)
			}
			if err := inArena(&nd.keyed); err != nil {
				return err
			}
			for i := range nd.entries {
				if havePrev && nd.cmp(i, prevKey, prevVal) <= 0 {
					return fmt.Errorf("entries out of order at key %x", nd.key(i))
				}
				prevKey, prevVal, havePrev = nd.key(i), nd.entries[i].val, true
			}
		case *inner:
			if len(nd.children) != len(nd.entries)+1 {
				return fmt.Errorf("inner node with %d keys and %d children", len(nd.entries), len(nd.children))
			}
			if err := inArena(&nd.keyed); err != nil {
				return err
			}
			for i, c := range nd.children {
				if err := walk(c, d+1); err != nil {
					return err
				}
				if i < len(nd.entries) && havePrev && nd.cmp(i, prevKey, prevVal) <= 0 {
					return fmt.Errorf("separator %x not greater than left subtree max", nd.key(i))
				}
			}
		}
		return nil
	}
	if err := walk(t.root, 1); err != nil {
		return err
	}
	n := 0
	t.Range(nil, nil, true, true, func([]byte, uint64) bool { n++; return true })
	if n != t.size {
		return fmt.Errorf("size %d but %d entries reachable", t.size, n)
	}
	return nil
}

// Builder gathers the entries of a tree that Build makes in one go: the
// keys in one arena, sixteen bytes per entry. Building an index over an
// existing extent this way sorts once and lays out full nodes, where
// inserting the entries one at a time leaves leaves half full and makes
// a heap object per key.
type Builder struct {
	keyed
}

// Add gathers (key, val); the builder keeps a copy of key.
func (b *Builder) Add(key []byte, val uint64) {
	b.entries = append(b.entries, entry{off: uint32(len(b.arena)), n: uint32(len(key)), val: val})
	b.arena = append(b.arena, key...)
}

// ErrDuplicateKey is Build's refusal of two entries with one key when
// the keys must be unique.
var ErrDuplicateKey = errors.New("duplicate key")

// Build returns a tree of the gathered entries and empties the builder.
// It sorts them by (key, val), drops exact duplicates (as Insert does),
// and refuses two entries with one key when unique is set. The tree is
// built bottom-up: leaves as full as btreeOrder allows, spread evenly
// (no two differ by more than one entry), whose entries and keys are
// consecutive runs of one entry array and one key arena in key order,
// then each level of inner nodes over the one below. A later write to a
// leaf copies its run, as writable does for any node, and never appends
// into a neighbour's.
func (b *Builder) Build(unique bool) (*BTree, error) {
	src := b.keyed
	b.keyed = keyed{}
	keyOf := func(e entry) []byte { return src.arena[e.off : e.off+e.n] }
	slices.SortFunc(src.entries, func(x, y entry) int {
		if c := bytes.Compare(keyOf(x), keyOf(y)); c != 0 {
			return c
		}
		return cmp.Compare(x.val, y.val)
	})
	ents, size := src.entries[:0], 0
	for i, e := range src.entries {
		if i > 0 && bytes.Equal(keyOf(e), keyOf(ents[len(ents)-1])) {
			if unique {
				return nil, ErrDuplicateKey
			}
			if e.val == ents[len(ents)-1].val {
				continue
			}
		}
		ents = append(ents, e)
		size += int(e.n)
	}
	if len(ents) == 0 {
		return NewBTree(), nil
	}
	t := &BTree{height: 1, size: len(ents), epoch: new(epoch)}
	// Lay the leaves out, each entry re-pointed into its leaf's run of
	// the arena.
	ents = slices.Clone(ents)
	arena := make([]byte, 0, size)
	level := make([]node, 0, (len(ents)+btreeOrder-1)/btreeOrder)
	for _, run := range spread(len(ents)) {
		es := ents[run[0]:run[1]:run[1]]
		start := len(arena)
		for i := range es {
			k := keyOf(es[i])
			es[i].off = uint32(len(arena) - start)
			arena = append(arena, k...)
		}
		level = append(level, &leaf{owner: t.epoch, keyed: keyed{arena: arena[start:len(arena):len(arena)], entries: es}})
	}
	for len(level) > 1 {
		up := make([]node, 0, (len(level)+btreeOrder-1)/btreeOrder)
		for _, run := range spread(len(level)) {
			in := &inner{owner: t.epoch, children: level[run[0]:run[1]:run[1]]}
			size := 0
			for _, c := range in.children[1:] {
				k, _ := leftmost(c)
				size += len(k)
			}
			in.arena, in.entries = make([]byte, 0, size), make([]entry, 0, len(in.children)-1)
			for _, c := range in.children[1:] {
				k, v := leftmost(c)
				in.entries = append(in.entries, entry{off: uint32(len(in.arena)), n: uint32(len(k)), val: v})
				in.arena = append(in.arena, k...)
			}
			up = append(up, in)
		}
		level = up
		t.height++
	}
	t.root = level[0]
	return t, nil
}

// spread cuts n items into the fewest runs of at most btreeOrder, their
// sizes differing by at most one, as [start, end) pairs.
func spread(n int) [][2]int {
	runs := make([][2]int, (n+btreeOrder-1)/btreeOrder)
	q, r := n/len(runs), n%len(runs)
	start := 0
	for i := range runs {
		end := start + q
		if i < r {
			end++
		}
		runs[i] = [2]int{start, end}
		start = end
	}
	return runs
}

// leftmost returns the smallest entry under n.
func leftmost(n node) ([]byte, uint64) {
	for {
		switch nd := n.(type) {
		case *inner:
			n = nd.children[0]
		case *leaf:
			return nd.key(0), nd.entries[0].val
		}
	}
}
