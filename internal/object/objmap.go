package object

import (
	"repro/internal/oid"
	"repro/internal/value"
)

// snapObj is one object's entry in the object directory: its tuple, its
// extent, and where it is or who owns it. A nil tv means no object: the
// zero snapObj is what an empty slot of the map holds. The entry is three
// words, so a trie leaf of 64 entries is 1.5 KiB: an extent member has no
// owner and a component no position, so one word holds whichever the
// entry has.
//
// An entry whose tv is pendingTuple is pending: RestoreObject wrote it,
// and its tuple is its record's, which the next freeze decodes (see
// Store.working). Only the working directory holds pending entries; a
// freeze decodes each before it seals the map.
type snapObj struct {
	tv  *value.Tuple
	ext *objExtent // owning extent; nil for own-ref components
	// at is an extent member's position in its member list, or a
	// component's owner (Nil when it has none); a pending entry's is its
	// index in Store.restored, whose record holds either (Store.settle).
	at uint64
}

// pendingTuple marks a pending entry. It is never read as a tuple.
var pendingTuple = &value.Tuple{}

// pending reports whether the entry's tuple is still its record's to
// decode.
func (so snapObj) pending() bool { return so.tv == pendingTuple }

// owner returns the entry's owner: a component's, or Nil for an extent
// member. A pending entry's is its record's in restored, which a sealed
// map never needs.
func (so snapObj) owner(restored []restoredObj) oid.OID {
	switch {
	case so.ext != nil:
		return oid.Nil
	case so.pending():
		return restored[so.at].owner
	}
	return oid.OID(so.at)
}

// extentName returns the name of the entry's extent; "" for a component.
func (so snapObj) extentName() string {
	if so.ext == nil {
		return ""
	}
	return so.ext.name
}

// objMap is the oid → snapObj map of one snapshot: a persistent radix
// trie. OIDs are values of a dense counter, so the key is used as it is,
// objBits at a time from the top; a map of n objects is
// ceil(log64(max oid)) levels deep (three up to 262 143, four up to 16.7
// million) whatever the number of commits behind it. An objMap is
// immutable. It is the store's one object directory: the store's working
// state is an objEdit of the head snapshot's map, which each write edits
// and each freeze seals. The edit copies only the nodes on the paths it
// changes and shares every other node with the map it started from — the
// next snapshot stores what its window changed and inherits the rest by
// reference.
type objMap struct {
	root   objNode // nil when the map is empty
	levels int     // nodes on a root-to-leaf path; the map spans oids below 1<<(levels*objBits)
	n      int     // live objects
}

const (
	objBits = 6
	objFan  = 1 << objBits
	objMask = objFan - 1
)

// objNode is *objInner or *objLeaf. Each node records the edit that
// allocated it: that edit alone may write to it, and only until done
// hands the map out.
type objNode interface{ isObjNode() }

type objInner struct {
	owner *objEdit
	kids  [objFan]objNode
}

type objLeaf struct {
	owner   *objEdit
	written uint64 // entries the owner wrote, one bit per slot
	vals    [objFan]snapObj
}

func (*objInner) isObjNode() {}
func (*objLeaf) isObjNode()  {}

// spans reports whether id is below the map's current capacity.
func (m *objMap) spans(id oid.OID) bool {
	bits := uint(m.levels * objBits)
	return bits >= 64 || uint64(id)>>bits == 0
}

func (m *objMap) get(id oid.OID) (snapObj, bool) {
	if m.root == nil || !m.spans(id) {
		return snapObj{}, false
	}
	n := m.root
	for shift := uint((m.levels - 1) * objBits); shift > 0; shift -= objBits {
		in, _ := n.(*objInner)
		if in == nil {
			return snapObj{}, false
		}
		n = in.kids[(uint64(id)>>shift)&objMask]
	}
	lf, _ := n.(*objLeaf)
	if lf == nil {
		return snapObj{}, false
	}
	so := lf.vals[uint64(id)&objMask]
	return so, so.tv != nil
}

// leafOf returns the leaf that holds id's entry, or nil. get walks the
// same path inline: it is every deref's, and the call cost it up to 2 ns
// in a random probe of 40 000 objects.
func (m *objMap) leafOf(id oid.OID) *objLeaf {
	if m.root == nil || !m.spans(id) {
		return nil
	}
	n := m.root
	for shift := uint((m.levels - 1) * objBits); shift > 0; shift -= objBits {
		in, _ := n.(*objInner)
		if in == nil {
			return nil
		}
		n = in.kids[(uint64(id)>>shift)&objMask]
	}
	lf, _ := n.(*objLeaf)
	return lf
}

// each visits the live objects in ascending oid order.
func (m *objMap) each(fn func(id oid.OID, so snapObj)) {
	var walk func(n objNode, base uint64, shift uint)
	walk = func(n objNode, base uint64, shift uint) {
		switch nd := n.(type) {
		case *objInner:
			for i, k := range nd.kids {
				if k != nil {
					walk(k, base|uint64(i)<<shift, shift-objBits)
				}
			}
		case *objLeaf:
			for i := range nd.vals {
				if nd.vals[i].tv != nil {
					fn(oid.OID(base|uint64(i)), nd.vals[i])
				}
			}
		}
	}
	if m.root != nil {
		walk(m.root, 0, uint((m.levels-1)*objBits))
	}
}

// objEdit is the transient form of an objMap: set and del write in place
// to nodes this edit allocated and copy any other node first, so a bulk
// write copies each node at most once and a one-object write copies one
// path. The map the edit started from is never written. An edit also
// knows which entries it wrote: a leaf it owns has a bit per entry set
// or deleted through it, and written counts them.
type objEdit struct {
	m       objMap
	written int
}

// edit starts a new map from m.
func (m *objMap) edit() *objEdit { return &objEdit{m: *m} }

func (e *objEdit) get(id oid.OID) (snapObj, bool) { return e.m.get(id) }

// done returns the edited map and ends the edit, which is what freezes
// the nodes it allocated. The edit lives on as their owner mark, so it
// lets go of the map: a node must not keep its whole first version alive.
func (e *objEdit) done() *objMap {
	m := e.m
	e.m = objMap{}
	return &m
}

func (e *objEdit) inner(n objNode) *objInner {
	in, _ := n.(*objInner)
	switch {
	case in == nil:
		return &objInner{owner: e}
	case in.owner != e:
		cp := *in
		cp.owner = e
		return &cp
	}
	return in
}

func (e *objEdit) leaf(n objNode) *objLeaf {
	lf, _ := n.(*objLeaf)
	switch {
	case lf == nil:
		return &objLeaf{owner: e}
	case lf.owner != e:
		cp := *lf
		cp.owner, cp.written = e, 0
		return &cp
	}
	return lf
}

// regroup reallocates the leaves under n the edit owns one after
// another, in oid order, and returns n's replacement. A bulk restore sets
// its entries between the allocations of its records and member chunks,
// and the freeze's decodes, so its leaves lie scattered; a scan that
// dereferences an object per row walks them in about oid order.
func (e *objEdit) regroup(n objNode) objNode {
	switch nd := n.(type) {
	case *objInner:
		if nd.owner == e { // a node the edit did not copy holds none it did
			for i, k := range nd.kids {
				nd.kids[i] = e.regroup(k)
			}
		}
	case *objLeaf:
		if nd.owner == e {
			cp := *nd
			return &cp
		}
	}
	return n
}

// mark records that the edit wrote the entry at slot i of lf.
func (e *objEdit) mark(lf *objLeaf, i uint64) {
	if lf.written&(1<<i) == 0 {
		lf.written |= 1 << i
		e.written++
	}
}

// set stores so, which must hold a tuple, under id.
func (e *objEdit) set(id oid.OID, so snapObj) {
	if e.m.levels == 0 {
		e.m.levels = 1
	}
	for !e.m.spans(id) {
		// Grow upwards: the old root becomes child 0 of a new one.
		if e.m.root != nil {
			up := &objInner{owner: e}
			up.kids[0] = e.m.root
			e.m.root = up
		}
		e.m.levels++
	}
	slot := &e.m.root
	for shift := uint((e.m.levels - 1) * objBits); shift > 0; shift -= objBits {
		in := e.inner(*slot)
		*slot = in
		slot = &in.kids[(uint64(id)>>shift)&objMask]
	}
	lf := e.leaf(*slot)
	*slot = lf
	i := uint64(id) & objMask
	e.mark(lf, i)
	if lf.vals[i].tv == nil {
		e.m.n++
	}
	lf.vals[i] = so
}

// del removes id. Nodes left empty are unlinked, so a map that shrinks
// gives its memory back.
func (e *objEdit) del(id oid.OID) {
	if _, ok := e.m.get(id); !ok {
		return
	}
	e.m.n--
	e.m.root = e.delIn(e.m.root, id, uint((e.m.levels-1)*objBits))
}

func (e *objEdit) delIn(n objNode, id oid.OID, shift uint) objNode {
	if shift == 0 {
		lf := e.leaf(n)
		e.mark(lf, uint64(id)&objMask)
		lf.vals[uint64(id)&objMask] = snapObj{}
		for i := range lf.vals {
			if lf.vals[i].tv != nil {
				return lf
			}
		}
		return nil
	}
	in := e.inner(n)
	i := (uint64(id) >> shift) & objMask
	in.kids[i] = e.delIn(in.kids[i], id, shift-objBits)
	for _, k := range in.kids {
		if k != nil {
			return in
		}
	}
	return nil
}
