// Package object implements the EXTRA object store: first-class objects
// with OIDs living in extents (named set variables) or as exclusively
// owned components of other objects, plus the three attribute-value
// semantics of the paper:
//
//   - own: a value embedded in its parent object; no identity, deep-copied
//     on assignment, destroyed with the parent;
//   - ref: a shared reference to an independent object; deleting the
//     referent leaves the reference dangling, and dangling references
//     read as null (GEM-style referential behaviour);
//   - own ref: a reference to a component object with identity that is
//     exclusively owned — it may be referenced from elsewhere, but it
//     belongs to exactly one owner (ORION composite semantics, so a
//     Person in one employee's kids set cannot be in another's) and is
//     destroyed when its owner is destroyed.
//
// The store has one object directory: the working state is an edit of
// the head snapshot's OID trie, whose entry per object holds its extent,
// owner, working tuple and, for an extent member, its position in the
// extent's member list, a chunk list (chunks.go) that sets the extent's
// scan order. A component is its entry alone, and variables and element
// sets are working values. The store keeps no encoded copy of an
// object: every write encodes its value, so the codec refuses what it
// cannot store at the write, and drops the bytes. Only what Load
// restored is kept encoded, until the next freeze decodes it (see
// working).
package object

import (
	"fmt"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// objExtent is an object-set extent: its working member list and the
// name that the directory entries of its members point at.
type objExtent struct {
	name    string
	members *memberList // the head's until the window's first write (Store.members)
}

// Store is the object store. Its concurrency contract matches the
// database layer's MVCC split: mutating methods (and the direct read
// methods, which see the uncommitted working state) require the
// database's exclusive write lock; concurrent readers never touch the
// working state at all — they pin the immutable Snapshot published by
// the last Commit and read that without any locking. The database
// layer enforces this by classifying statements: writes serialize on
// db.wmu, read through View and call Commit when done, reads call
// Snapshot. The direct read methods serve a write statement's apply
// phase, the store's own bookkeeping and the tests' oracles; no
// statement's read phase uses them.
type Store struct {
	cat     *catalog.Catalog
	gen     *oid.Generator
	extents map[string]*objExtent // object-set extents

	// varVals and elems hold the working values of the singleton and
	// array variables and of the ref-set and value-set extents. A value
	// in them is store-owned and never mutated, and the head shares both
	// maps by reference: a freeze hands them over as they stand, and a
	// window's first write copies them (writeVals).
	varVals   map[string]value.Value
	elems     map[string]*elemList
	valsOwned bool // varVals and elems were copied since the last freeze

	// dir is the object directory: an edit of the head's object map,
	// opened when the head was frozen. Every object write sets the
	// object's entry here, with the tuple the write stored — the
	// store-owned, internalized value — so nothing mutates a tuple once
	// stored. A freeze seals dir as the next head's map and opens a new
	// edit of it. restored holds the objects RestoreObject wrote since
	// the last freeze, whose entries are pending (see working), each
	// with its canonical record.
	dir      *objEdit
	restored []restoredObj

	// enc is the buffer every write encodes into (encodeRecord).
	enc []byte

	// snap is the latest published immutable snapshot; readers load it
	// once per statement and never look at the working state above. head
	// is the latest frozen one: snap, or a newer snapshot View froze that
	// the next Commit publishes. The dirty flags record what changed
	// since the last freeze besides the directory and the value maps —
	// the object extents (created, dropped or written) and the indexes —
	// so a freeze refreshes only touched state. stamped is the last
	// version a freeze stamped: the next freeze stamps one more, so a
	// version an aborted window's freeze stamped is never stamped again.
	// head, the flags and stamped are guarded by the same write lock as
	// the maps; snap itself is atomic.
	snap      atomic.Pointer[Snapshot]
	head      *Snapshot
	stamped   uint64
	catEdits  uint64 // cat.Edits() when head's catalog was frozen
	dirtyExts bool
	dirtyIdx  bool

	obs atomic.Pointer[commitObs] // where Commit reports; nil until SetMetrics
}

// Version returns the version of the published snapshot: it moves with
// every publication, and a failed write, which publishes nothing,
// leaves it as it was.
func (s *Store) Version() uint64 { return s.snap.Load().version }

// New creates an object store, resolving types through the catalog. The
// store keeps no page; the pool parameter is unused and stays only for
// the repository benchmark's callers (ROADMAP item 1(f)/12).
func New(_ *storage.BufferPool, cat *catalog.Catalog) *Store {
	s := &Store{
		cat:      cat,
		gen:      &oid.Generator{},
		extents:  make(map[string]*objExtent),
		varVals:  make(map[string]value.Value),
		elems:    make(map[string]*elemList),
		catEdits: cat.Edits(),
	}
	// Publish the empty snapshot so readers of a fresh database have a
	// valid (empty) view before the first commit.
	s.head = &Snapshot{
		cat:     cat.Freeze(),
		objs:    &objMap{},
		extents: map[string]*memberList{},
		elems:   s.elems,
		vars:    s.varVals,
		indexes: map[string]*storage.BTree{},
	}
	s.snap.Store(s.head)
	s.dir = s.head.objs.edit()
	return s
}

// Catalog returns the working catalog, which write statements edit and
// Commit publishes frozen. Readers use their snapshot's catalog instead.
func (s *Store) Catalog() *catalog.Catalog { return s.cat }

// InitVar provisions storage for a newly created database variable.
// Object-set extents get an empty member list; ref/value sets get an
// empty element list; singletons get a working value initialized to
// null, and arrays an array: empty, or of nulls for fixed arrays.
//
// extra:requires db.wmu.W
func (s *Store) InitVar(v *catalog.Variable) error {
	switch {
	case v.IsObjectSet():
		s.extents[v.Name] = &objExtent{name: v.Name, members: &memberList{}}
		s.dirtyExts = true
	case v.IsRefSet() || v.IsValueSet():
		s.writeVals()
		s.elems[v.Name] = &elemList{}
	default:
		var init value.Value = value.Null{}
		if at, ok := v.Comp.Type.(*types.Array); ok {
			arr := &value.Array{Fixed: at.Fixed}
			if at.Fixed {
				arr.Elems = make([]value.Value, at.Len)
				for i := range arr.Elems {
					arr.Elems[i] = value.Null{}
				}
			}
			init = arr
		}
		for _, name := range sortedKeys(s.varVals) {
			if varOwner(name) == varOwner(v.Name) {
				return fmt.Errorf("variable %s: its owner OID is variable %s's", v.Name, name)
			}
		}
		s.writeVals()
		s.varVals[v.Name] = init
	}
	return nil
}

// DropVar destroys a database variable and everything it owns.
//
// extra:requires db.wmu.W
func (s *Store) DropVar(v *catalog.Variable) error {
	switch {
	case v.IsObjectSet():
		x := s.extents[v.Name]
		if x == nil {
			return nil
		}
		var ids []oid.OID
		x.members.each(func(_ int, m member) error {
			ids = append(ids, m.id)
			return nil
		})
		for _, id := range ids {
			if err := s.Delete(id); err != nil {
				return err
			}
		}
		delete(s.extents, v.Name)
		s.dirtyExts = true
		return nil
	case v.IsRefSet() || v.IsValueSet():
		s.writeVals()
		delete(s.elems, v.Name)
		return nil
	default:
		old, ok := s.varVals[v.Name]
		if !ok {
			return nil
		}
		if err := s.destroyOwned(v.Comp, old); err != nil {
			return err
		}
		s.writeVals()
		delete(s.varVals, v.Name)
		return nil
	}
}

// ---------------------------------------------------------------------------
// Object-set extents

// Insert adds a new object to an object-set extent, at the tail of its
// member list. The tuple's nested own-ref components are internalized:
// embedded tuple values become owned component objects referenced by
// OID, and pre-existing references are claimed (failing if already
// owned elsewhere). The tuple value passed in is not retained.
//
// extra:requires db.wmu.W
func (s *Store) Insert(extent string, tv *value.Tuple) (oid.OID, error) {
	x, ok := s.extents[extent]
	if !ok {
		return oid.Nil, fmt.Errorf("no object extent %s", extent)
	}
	id := s.gen.Next()
	comp := types.Component{Mode: types.Own, Type: tv.Type}
	iv, err := s.internalize(comp, value.Copy(tv), id)
	if err != nil {
		return oid.Nil, err
	}
	nt := iv.(*value.Tuple)
	if err := s.checkUnique(extent, id, nt); err != nil {
		return oid.Nil, err
	}
	if _, err := s.encodeRecord(nt); err != nil {
		return oid.Nil, err
	}
	pos := s.members(x).append(member{id, nt})
	s.dir.set(id, snapObj{tv: nt, ext: x, at: uint64(pos)})
	s.indexInsert(extent, id, nt)
	return id, nil
}

// members returns x's working member list, which the window may write.
func (s *Store) members(x *objExtent) *memberList {
	if x.members.mine == nil {
		x.members = x.members.edit()
		s.dirtyExts = true
	}
	return x.members
}

// pos returns the position of an extent member in its member list.
func (s *Store) pos(so snapObj) int {
	if so.pending() {
		return s.restored[so.at].pos
	}
	return int(so.at)
}

// settle returns so holding tv: a pending entry's at, an index in
// restored, becomes what its record holds, the member's position or the
// component's owner.
func (s *Store) settle(so snapObj, tv *value.Tuple) snapObj {
	if so.pending() {
		r := s.restored[so.at]
		so.at = uint64(r.owner)
		if so.ext != nil {
			so.at = uint64(r.pos)
		}
	}
	so.tv = tv
	return so
}

// Get fetches an object by OID: a copy of its working value, which the
// caller may mutate. Missing objects (deleted, or never created) report
// ok=false — a dangling reference reads as null.
func (s *Store) Get(id oid.OID) (*value.Tuple, bool, error) {
	so, ok := s.dir.get(id)
	if !ok {
		return nil, false, nil
	}
	tv, err := s.working(id, so)
	if err != nil {
		return nil, false, err
	}
	return value.Copy(tv).(*value.Tuple), true, nil
}

// working returns the working value of the live object id, which the
// caller must not mutate: its directory entry's tuple — the tuple the
// last write stored, or the head's when no write touched the object
// since the last freeze — except for an entry RestoreObject wrote since
// the last freeze, which is pending: its record, decoded.
func (s *Store) working(id oid.OID, so snapObj) (*value.Tuple, error) {
	if !so.pending() {
		return so.tv, nil
	}
	return decodeTuple(id, s.restored[so.at].data, s.cat)
}

// encodeRecord encodes v into the store's reusable buffer; the bytes
// are valid until the next call. Every write encodes what it stores and
// keeps none of it: a value the codec refuses (an ADT with no storage
// codec) is refused when it is written, not when a dump or the log
// meets it. A buffer an encoding grew past maxEncBuf is let go, so one
// huge value does not pin its size for the store's life.
func (s *Store) encodeRecord(v value.Value) ([]byte, error) {
	enc, err := codec.Encode(s.enc[:0], v)
	if cap(enc) <= maxEncBuf {
		s.enc = enc
	} else {
		s.enc = nil
	}
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// maxEncBuf is the largest encoding buffer the store keeps between
// writes.
const maxEncBuf = 64 << 10

// decodeTuple decodes an object record. The tuple shares nothing with
// rec.
func decodeTuple(id oid.OID, rec []byte, cat *catalog.Catalog) (*value.Tuple, error) {
	v, err := codec.DecodeOne(rec, cat)
	if err != nil {
		return nil, err
	}
	tv, ok := v.(*value.Tuple)
	if !ok {
		return nil, fmt.Errorf("object %s is not a tuple", id)
	}
	return tv, nil
}

// Exists reports whether the OID identifies a live object.
func (s *Store) Exists(id oid.OID) bool {
	_, ok := s.dir.get(id)
	return ok
}

// Delete destroys an object: removes it (RemoveObject) and destroys
// every own-ref component it owns (recursively). References elsewhere
// are left dangling and read as null.
//
// extra:requires db.wmu.W
func (s *Store) Delete(id oid.OID) error {
	tv, err := s.remove(id)
	if err != nil {
		return err
	}
	comp := types.Component{Mode: types.Own, Type: tv.Type}
	return s.destroyOwned(comp, tv)
}

// RemoveObject removes one object: its directory entry, an extent
// member's place in its member list and its index entries. Its
// components stay; a logged edit removes each of them on its own line.
//
// extra:requires db.wmu.W
func (s *Store) RemoveObject(id oid.OID) error {
	_, err := s.remove(id)
	return err
}

// remove is RemoveObject, returning the removed object's working value.
//
// extra:requires db.wmu.W
func (s *Store) remove(id oid.OID) (*value.Tuple, error) {
	so, ok := s.dir.get(id)
	if !ok {
		return nil, fmt.Errorf("delete of missing object %s", id)
	}
	tv, err := s.working(id, so)
	if err != nil {
		return nil, err
	}
	if so.ext != nil {
		if err := s.members(so.ext).delete(s.pos(so)); err != nil {
			return nil, err
		}
		s.indexDelete(so.ext.name, id, tv)
	}
	s.dir.del(id)
	return tv, nil
}

// Update rewrites an object's stored value; an extent member keeps its
// place in its member list. Own-ref components removed by the update
// are destroyed; components added are created or claimed. Index entries
// are touched only in indexes whose key for the object changed.
//
// extra:requires db.wmu.W
func (s *Store) Update(id oid.OID, tv *value.Tuple) error {
	so, ok := s.dir.get(id)
	if !ok {
		return fmt.Errorf("update of missing object %s", id)
	}
	old, err := s.working(id, so)
	if err != nil {
		return err
	}
	comp := types.Component{Mode: types.Own, Type: old.Type}
	oldOwned := map[oid.OID]bool{}
	collectOwned(comp, old, oldOwned)

	iv, err := s.internalizeKeeping(comp, value.Copy(tv), id, oldOwned)
	if err != nil {
		return err
	}
	nt := iv.(*value.Tuple)
	newOwned := map[oid.OID]bool{}
	collectOwned(comp, nt, newOwned)

	if so.ext != nil {
		if err := s.checkUnique(so.ext.name, id, nt); err != nil {
			return err
		}
	}
	if _, err := s.encodeRecord(nt); err != nil {
		return err
	}
	// Re-read the entry: internalizing wrote the entries of the
	// components it claimed, which may include this one's owner.
	so, _ = s.dir.get(id)
	if so.ext != nil {
		if err := s.members(so.ext).set(s.pos(so), member{id, nt}); err != nil {
			return err
		}
	}
	s.dir.set(id, s.settle(so, nt))
	if so.ext != nil {
		s.indexMove(so.ext.name, id, old, nt)
	}
	// Destroy components that fell out of the object.
	for old := range oldOwned {
		if !newOwned[old] {
			if s.Exists(old) {
				if err := s.Delete(old); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
