// Package object implements the EXTRA object store: first-class objects
// with OIDs living in extents (named set variables) or as exclusively
// owned components of other objects, plus the three attribute-value
// semantics of the paper:
//
//   - own: a value embedded in its parent record; no identity, deep-copied
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
// owner, working tuple and, for an extent member, record RID. Only
// extent members have records: codec encodings on their extent's heap
// pages, which set its scan order. A component is its entry alone, and
// variables and element sets are working values. No write and no freeze
// reads a record back, except one Load restored (see working).
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

// objExtent is an object-set extent: its heap file and the name that
// the directory entries of its members point at.
type objExtent struct {
	name string
	heap *storage.HeapFile
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
	pool    *storage.BufferPool
	cat     *catalog.Catalog
	gen     *oid.Generator
	extents map[string]*objExtent // object-set extents
	varOID  map[string]oid.OID    // pseudo-owner OID per variable

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
	// edit of it. restored holds the own-ref components RestoreObject
	// wrote since the last freeze, whose entries are pending (see
	// working), each with its canonical record.
	dir      *objEdit
	restored []ExportObject

	// enc is the buffer every write encodes into (encodeRecord).
	enc []byte

	// version counts mutations (inserts, updates, deletes, variable and
	// element writes, releases, restores). Commit stamps it on the
	// snapshot it publishes (Snapshot.Version, the snapshot.version
	// trace attribute and the mvcc.version gauge), so every mutating
	// method must call bump or two different states would share a
	// version. Atomic so observers can read it while a writer is
	// mid-statement.
	version atomic.Uint64

	// snap is the latest published immutable snapshot; readers load it
	// once per statement and never look at the working state above. head
	// is the latest frozen one: snap, or a newer snapshot View froze that
	// the next Commit publishes. The dirty sets record what changed since
	// the last freeze besides the directory and the value maps — per
	// extent the heap pages written, and the indexes — so a freeze
	// refreshes only touched state. head and the dirty sets are guarded
	// by the same write lock as the maps; snap itself is atomic.
	snap      atomic.Pointer[Snapshot]
	head      *Snapshot
	catEdits  uint64 // cat.Edits() when head's catalog was frozen
	dirtyExts map[string]*pageDirt
	dirtyIdx  bool

	obs atomic.Pointer[commitObs] // where Commit reports; nil until SetMetrics
}

// Version returns the store's mutation counter. Any change to stored
// values (object, element or variable) increments it; a cache holding
// decoded values is valid exactly as long as the version is unchanged.
func (s *Store) Version() uint64 { return s.version.Load() }

func (s *Store) bump() { s.version.Add(1) }

// New creates an object store over the pool, resolving types through the
// catalog.
func New(pool *storage.BufferPool, cat *catalog.Catalog) *Store {
	s := &Store{
		pool:      pool,
		cat:       cat,
		gen:       &oid.Generator{},
		extents:   make(map[string]*objExtent),
		varOID:    make(map[string]oid.OID),
		varVals:   make(map[string]value.Value),
		elems:     make(map[string]*elemList),
		dirtyExts: make(map[string]*pageDirt),
		catEdits:  cat.Edits(),
	}
	// Publish the empty snapshot so readers of a fresh database have a
	// valid (empty) view before the first commit.
	s.head = &Snapshot{
		cat:     cat.Freeze(),
		objs:    &objMap{},
		extents: map[string]*extentSnap{},
		elems:   s.elems,
		vars:    s.varVals,
		indexes: map[string]*storage.BTree{},
	}
	s.snap.Store(s.head)
	s.dir = s.head.objs.edit()
	return s
}

// Pool returns the underlying buffer pool (for stats and benchmarks).
func (s *Store) Pool() *storage.BufferPool { return s.pool }

// Catalog returns the working catalog, which write statements edit and
// Commit publishes frozen. Readers use their snapshot's catalog instead.
func (s *Store) Catalog() *catalog.Catalog { return s.cat }

// InitVar provisions storage for a newly created database variable.
// Object-set extents get a heap file; ref/value sets get an empty
// element list; singletons and arrays get a working value initialized
// to null (or an array of nulls for fixed arrays).
//
// extra:requires db.wmu.W
func (s *Store) InitVar(v *catalog.Variable) error {
	s.bump()
	switch {
	case v.IsObjectSet():
		s.extents[v.Name] = &objExtent{name: v.Name, heap: storage.NewHeapFile(s.pool)}
		s.markExtent(v.Name)
	case v.IsRefSet() || v.IsValueSet():
		s.writeVals()
		s.elems[v.Name] = &elemList{}
	default:
		var init value.Value = value.Null{}
		if at, ok := v.Comp.Type.(*types.Array); ok && at.Fixed {
			arr := &value.Array{Fixed: true, Elems: make([]value.Value, at.Len)}
			for i := range arr.Elems {
				arr.Elems[i] = value.Null{}
			}
			init = arr
		}
		s.writeVals()
		s.varVals[v.Name] = init
		s.varOID[v.Name] = s.gen.Next()
	}
	return nil
}

// DropVar destroys a database variable and everything it owns.
//
// extra:requires db.wmu.W
func (s *Store) DropVar(v *catalog.Variable) error {
	s.bump()
	switch {
	case v.IsObjectSet():
		x := s.extents[v.Name]
		if x == nil {
			return nil
		}
		// Delete in oid order, the directory's: where the deletions
		// leave free space must not differ between a run and its WAL
		// replay.
		var ids []oid.OID
		s.dir.m.each(func(id oid.OID, so snapObj) {
			if so.ext == x {
				ids = append(ids, id)
			}
		})
		for _, id := range ids {
			if err := s.Delete(id); err != nil {
				return err
			}
		}
		// Only now: an extent whose drop failed half-way is still live,
		// and the next commit must freeze its pages from the marks the
		// deletes left, not as if they were new.
		s.markExtent(v.Name)
		delete(s.extents, v.Name)
		return x.heap.DropAll()
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
		delete(s.varOID, v.Name)
		return nil
	}
}

// ---------------------------------------------------------------------------
// Object-set extents

// Insert adds a new object to an object-set extent. The tuple's nested
// own-ref components are internalized: embedded tuple values become owned
// component objects referenced by OID, and pre-existing references are
// claimed (failing if already owned elsewhere). The tuple value passed in
// is not retained.
//
// extra:requires db.wmu.W
func (s *Store) Insert(extent string, tv *value.Tuple) (oid.OID, error) {
	s.bump()
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
	if err := s.checkUnique(extent, id, iv.(*value.Tuple)); err != nil {
		return oid.Nil, err
	}
	enc, err := s.encodeRecord(iv)
	if err != nil {
		return oid.Nil, err
	}
	rid, err := x.heap.Insert(enc)
	if err != nil {
		return oid.Nil, err
	}
	s.put(id, snapObj{tv: iv.(*value.Tuple), ext: x, at: packRID(rid)})
	s.indexInsert(extent, id, iv.(*value.Tuple))
	return id, nil
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
	return s.readRecord(id, so)
}

// readRecord decodes the record of a live object: an extent member's
// from its heap, a pending component's from where RestoreObject kept it.
func (s *Store) readRecord(id oid.OID, so snapObj) (*value.Tuple, error) {
	if so.ext == nil {
		return decodeTuple(id, s.restored[so.at].Data, s.cat)
	}
	rec, err := so.ext.heap.Get(so.rid())
	if err != nil {
		return nil, err
	}
	return decodeTuple(id, rec, s.cat)
}

// encodeRecord encodes v into the store's one reusable buffer; the bytes
// are valid until the next call. A write that stores no record encodes
// too: a value the codec refuses (an ADT with no storage codec) is
// refused when it is written, not when a dump or the log meets it.
func (s *Store) encodeRecord(v value.Value) ([]byte, error) {
	enc, err := codec.Encode(s.enc[:0], v)
	if err != nil {
		return nil, err
	}
	s.enc = enc
	return enc, nil
}

// decodeTuple decodes an object record. The tuple shares nothing with
// rec, which may be a buffer-pool frame.
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

// Delete destroys an object: removes an extent member's record from its
// heap, destroys every own-ref component it owns (recursively), and
// removes its index entries, once the heap delete has succeeded.
// References elsewhere are left dangling and read as null.
//
// extra:requires db.wmu.W
func (s *Store) Delete(id oid.OID) error {
	s.bump()
	so, ok := s.dir.get(id)
	if !ok {
		return fmt.Errorf("delete of missing object %s", id)
	}
	s.put(id, so) // while the entry still names the record's slot
	tv, err := s.working(id, so)
	if err != nil {
		return err
	}
	if so.ext != nil {
		if err := so.ext.heap.Delete(so.rid()); err != nil {
			return err
		}
		s.indexDelete(so.ext.name, id, tv)
	}
	s.dir.del(id)
	comp := types.Component{Mode: types.Own, Type: tv.Type}
	return s.destroyOwned(comp, tv)
}

// Update rewrites an object's stored value (and an extent member's
// record). Own-ref components removed by the update are destroyed;
// components added are created or claimed. Index entries are touched
// only after the heap write has succeeded, and only in indexes whose key
// for the object changed.
//
// extra:requires db.wmu.W
func (s *Store) Update(id oid.OID, tv *value.Tuple) error {
	s.bump()
	so, ok := s.dir.get(id)
	if !ok {
		return fmt.Errorf("update of missing object %s", id)
	}
	s.put(id, so) // the record's slot, which it may leave
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
	newOwned := map[oid.OID]bool{}
	collectOwned(comp, iv, newOwned)

	if so.ext != nil {
		if err := s.checkUnique(so.ext.name, id, iv.(*value.Tuple)); err != nil {
			return err
		}
	}
	enc, err := s.encodeRecord(iv)
	if err != nil {
		return err
	}
	var werr error
	nat := so.at
	if so.ext != nil {
		nrid, err := so.ext.heap.Update(so.rid(), enc)
		if nrid.IsNil() {
			return err // the record is unchanged
		}
		nat, werr = packRID(nrid), err
	}
	// Re-read the entry: internalizing wrote the entries of the
	// components it claimed, which may include this one's owner.
	so, _ = s.dir.get(id)
	so.tv, so.at = iv.(*value.Tuple), nat
	s.put(id, so) // the slot the record is in now
	if so.ext != nil {
		s.indexMove(so.ext.name, id, old, iv.(*value.Tuple))
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
	return werr
}
