package storage

import (
	"bytes"
	"fmt"
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

type entry struct {
	key []byte
	val uint64
}

type node interface {
	isNode()
}

type leaf struct {
	owner   *epoch
	entries []entry
}

type inner struct {
	owner *epoch
	// keys[i] is the smallest (key,val) of children[i+1]'s subtree.
	keys     []entry
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

func cmpEntry(a, b entry) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	switch {
	case a.val < b.val:
		return -1
	case a.val > b.val:
		return 1
	}
	return 0
}

// writable returns n itself when the current epoch allocated it, and
// otherwise a copy the current epoch owns, with room for one more entry.
// The caller stores the result back where it found n.
func (t *BTree) writable(n node) node {
	switch nd := n.(type) {
	case *leaf:
		if nd.owner == t.epoch {
			return nd
		}
		return &leaf{owner: t.epoch, entries: append(make([]entry, 0, len(nd.entries)+1), nd.entries...)}
	case *inner:
		if nd.owner == t.epoch {
			return nd
		}
		return &inner{
			owner:    t.epoch,
			keys:     append(make([]entry, 0, len(nd.keys)+1), nd.keys...),
			children: append(make([]node, 0, len(nd.children)+1), nd.children...),
		}
	}
	panic("unreachable")
}

// Insert adds (key, val). Inserting an exact duplicate (same key and same
// val) is a no-op and reports false.
func (t *BTree) Insert(key []byte, val uint64) bool {
	k := make([]byte, len(key))
	copy(k, key)
	t.root = t.writable(t.root)
	split, sepKey, added := t.insert(t.root, entry{key: k, val: val})
	if split != nil {
		t.root = &inner{owner: t.epoch, keys: []entry{sepKey}, children: []node{t.root, split}}
		t.height++
	}
	if added {
		t.size++
	}
	return added
}

// insert descends through n, which the current epoch owns, returning a
// new right sibling and its separator when n split.
func (t *BTree) insert(n node, e entry) (node, entry, bool) {
	switch nd := n.(type) {
	case *leaf:
		i := lowerBound(nd.entries, e)
		if i < len(nd.entries) && cmpEntry(nd.entries[i], e) == 0 {
			return nil, entry{}, false // exact duplicate
		}
		nd.entries = append(nd.entries, entry{})
		copy(nd.entries[i+1:], nd.entries[i:])
		nd.entries[i] = e
		if len(nd.entries) <= btreeOrder {
			return nil, entry{}, true
		}
		mid := len(nd.entries) / 2
		right := &leaf{owner: t.epoch, entries: append([]entry(nil), nd.entries[mid:]...)}
		nd.entries = nd.entries[:mid]
		return right, right.entries[0], true
	case *inner:
		i := childIndex(nd.keys, e)
		nd.children[i] = t.writable(nd.children[i])
		split, sep, added := t.insert(nd.children[i], e)
		if split == nil {
			return nil, entry{}, added
		}
		nd.keys = append(nd.keys, entry{})
		copy(nd.keys[i+1:], nd.keys[i:])
		nd.keys[i] = sep
		nd.children = append(nd.children, nil)
		copy(nd.children[i+2:], nd.children[i+1:])
		nd.children[i+1] = split
		if len(nd.children) <= btreeOrder {
			return nil, entry{}, added
		}
		midK := len(nd.keys) / 2
		sepUp := nd.keys[midK]
		right := &inner{
			owner:    t.epoch,
			keys:     append([]entry(nil), nd.keys[midK+1:]...),
			children: append([]node(nil), nd.children[midK+1:]...),
		}
		nd.keys = nd.keys[:midK]
		nd.children = nd.children[:midK+1]
		return right, sepUp, added
	}
	panic("unreachable")
}

// lowerBound returns the first index whose entry is >= e.
func lowerBound(es []entry, e entry) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpEntry(es[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child to descend into for e.
func childIndex(keys []entry, e entry) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmpEntry(keys[mid], e) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Delete removes (key, val); it reports whether the entry existed.
func (t *BTree) Delete(key []byte, val uint64) bool {
	e := entry{key: key, val: val}
	t.root = t.writable(t.root)
	n := t.root
	for {
		switch nd := n.(type) {
		case *inner:
			i := childIndex(nd.keys, e)
			nd.children[i] = t.writable(nd.children[i])
			n = nd.children[i]
		case *leaf:
			i := lowerBound(nd.entries, e)
			if i >= len(nd.entries) || cmpEntry(nd.entries[i], e) != 0 {
				return false
			}
			nd.entries = append(nd.entries[:i], nd.entries[i+1:]...)
			t.size--
			return true
		}
	}
}

// Range calls fn for every (key, val) with lo <= key <= hi (nil bounds
// are unbounded, incLo/incHi control bound inclusion). Iteration stops
// early when fn returns false.
func (t *BTree) Range(lo, hi []byte, incLo, incHi bool, fn func(key []byte, val uint64) bool) {
	start := entry{key: lo}
	if lo != nil && !incLo {
		// Skip all entries with key == lo: seek to (lo, max).
		start.val = ^uint64(0)
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
	seek := true                  // only the first descent is positioned by start
	skipLo := lo != nil && !incLo // until the scan is past key == lo
	for {
		var l *leaf
		for l == nil {
			switch nd := n.(type) {
			case *inner:
				i := 0
				if seek {
					i = childIndex(nd.keys, start)
				}
				path = append(path, step{nd, i})
				n = nd.children[i]
			case *leaf:
				l = nd
			}
		}
		i := 0
		if seek {
			i = lowerBound(l.entries, start)
			seek = false
		}
		for ; i < len(l.entries); i++ {
			e := l.entries[i]
			if skipLo {
				if bytes.Equal(e.key, lo) {
					continue // (lo, max), the one entry the seek could not pass
				}
				skipLo = false
			}
			if hi != nil {
				c := bytes.Compare(e.key, hi)
				if c > 0 || (c == 0 && !incHi) {
					return
				}
			}
			if !fn(e.key, e.val) {
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

// CheckInvariants validates ordering, separator correctness and uniform
// depth; it is used by the property-based tests.
func (t *BTree) CheckInvariants() error {
	depth := -1
	var prev *entry
	var walk func(n node, d int) error
	walk = func(n node, d int) error {
		switch nd := n.(type) {
		case *leaf:
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("non-uniform leaf depth: %d vs %d", depth, d)
			}
			for i := range nd.entries {
				e := &nd.entries[i]
				if prev != nil && cmpEntry(*prev, *e) >= 0 {
					return fmt.Errorf("entries out of order at key %x", e.key)
				}
				prev = e
			}
		case *inner:
			if len(nd.children) != len(nd.keys)+1 {
				return fmt.Errorf("inner node with %d keys and %d children", len(nd.keys), len(nd.children))
			}
			for i, c := range nd.children {
				if err := walk(c, d+1); err != nil {
					return err
				}
				if i < len(nd.keys) && prev != nil && cmpEntry(*prev, nd.keys[i]) >= 0 {
					return fmt.Errorf("separator %x not greater than left subtree max", nd.keys[i].key)
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
