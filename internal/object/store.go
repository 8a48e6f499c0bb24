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
// Objects are serialized with package codec onto heap files managed by
// the storage package; all access flows through the buffer pool.
package object

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// objInfo locates one live object and records its ownership.
type objInfo struct {
	extent string // owning extent; "" for nursery components
	rid    storage.RID
	typ    *types.TupleType
	owner  oid.OID // owning object for own-ref components; Nil otherwise
}

// Store is the object store. Its concurrency contract matches the
// database layer's MVCC split: mutating methods (and the direct read
// methods, which see the uncommitted working state) require the
// database's exclusive write lock; concurrent readers never touch the
// working state at all — they pin the immutable Snapshot published by
// the last Commit and read that without any locking. The database
// layer enforces this by classifying statements: writes serialize on
// db.wmu and call Commit when done, reads call Snapshot.
type Store struct {
	pool    *storage.BufferPool
	cat     *catalog.Catalog
	gen     *oid.Generator
	extents map[string]*storage.HeapFile // object-set extents
	elems   map[string]*storage.HeapFile // ref-set and value-set extents
	nursery *storage.HeapFile            // own-ref components of objects
	vars    *storage.HeapFile            // singleton and array variables
	varRID  map[string]storage.RID
	varOID  map[string]oid.OID // pseudo-owner OID per variable
	omap    map[oid.OID]*objInfo
	rids    map[string]map[storage.RID]oid.OID // extent -> reverse RID map

	// version counts mutations (inserts, updates, deletes, variable and
	// element writes, restores). Caches keyed on object state — the
	// executor's deref memoization — compare it to detect staleness, so
	// every mutating method must call bump. Atomic so concurrent readers
	// can validate their statement-local caches while a writer is
	// mid-statement.
	version atomic.Uint64

	// snap is the latest published immutable snapshot; readers load it
	// once per statement and never look at the maps above. The dirty
	// sets record what changed since the last Commit — objects, and per
	// extent the heap pages written — so publication refreshes only
	// touched state. They are guarded by the same write lock as the
	// maps; snap itself is atomic.
	snap       atomic.Pointer[Snapshot]
	dirtyObjs  map[oid.OID]struct{}
	dirtyExts  map[string]*pageDirt
	dirtyElems map[string]*pageDirt
	dirtyVars  map[string]struct{}
	dirtyIdx   bool

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
		pool:       pool,
		cat:        cat,
		gen:        &oid.Generator{},
		extents:    make(map[string]*storage.HeapFile),
		elems:      make(map[string]*storage.HeapFile),
		nursery:    storage.NewHeapFile(pool),
		vars:       storage.NewHeapFile(pool),
		varRID:     make(map[string]storage.RID),
		varOID:     make(map[string]oid.OID),
		omap:       make(map[oid.OID]*objInfo),
		rids:       make(map[string]map[storage.RID]oid.OID),
		dirtyObjs:  make(map[oid.OID]struct{}),
		dirtyExts:  make(map[string]*pageDirt),
		dirtyElems: make(map[string]*pageDirt),
		dirtyVars:  make(map[string]struct{}),
	}
	// Publish the empty snapshot so readers of a fresh database have a
	// valid (empty) view before the first commit.
	s.snap.Store(&Snapshot{
		objs:    &objMap{},
		extents: map[string]*extentSnap{},
		elems:   map[string]*elemSnap{},
		vars:    map[string]value.Value{},
		indexes: map[string]*storage.BTree{},
	})
	return s
}

// Pool returns the underlying buffer pool (for stats and benchmarks).
func (s *Store) Pool() *storage.BufferPool { return s.pool }

// InitVar provisions storage for a newly created database variable.
// Object-set extents get a heap file; ref/value sets get an element heap;
// singletons and arrays get a slot in the variable heap initialized to
// null (or an array of nulls for fixed arrays).
//
// extra:requires db.wmu.W
func (s *Store) InitVar(v *catalog.Variable) error {
	s.bump()
	switch {
	case v.IsObjectSet():
		s.extents[v.Name] = storage.NewHeapFile(s.pool)
		s.rids[v.Name] = make(map[storage.RID]oid.OID)
		s.markExtent(v.Name)
	case v.IsRefSet() || v.IsValueSet():
		s.elems[v.Name] = storage.NewHeapFile(s.pool)
		s.markElems(v.Name)
	default:
		var init value.Value = value.Null{}
		if at, ok := v.Comp.Type.(*types.Array); ok && at.Fixed {
			arr := &value.Array{Fixed: true, Elems: make([]value.Value, at.Len)}
			for i := range arr.Elems {
				arr.Elems[i] = value.Null{}
			}
			init = arr
		}
		enc, err := codec.Encode(nil, init)
		if err != nil {
			return err
		}
		rid, err := s.vars.Insert(enc)
		if err != nil {
			return err
		}
		s.varRID[v.Name] = rid
		s.varOID[v.Name] = s.gen.Next()
		s.markVar(v.Name)
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
		h := s.extents[v.Name]
		if h == nil {
			return nil
		}
		var ids []oid.OID
		for id, info := range s.omap {
			if info.extent == v.Name {
				ids = append(ids, id)
			}
		}
		// Delete in oid order, not map order: where the deletions leave
		// free space must not differ between a run and its WAL replay.
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
		delete(s.rids, v.Name)
		return h.DropAll()
	case v.IsRefSet() || v.IsValueSet():
		h := s.elems[v.Name]
		if h == nil {
			return nil
		}
		s.markElems(v.Name)
		delete(s.elems, v.Name)
		return h.DropAll()
	default:
		rid, ok := s.varRID[v.Name]
		if !ok {
			return nil
		}
		s.markVar(v.Name)
		old, err := s.readVar(v, rid)
		if err != nil {
			return err
		}
		if err := s.destroyOwned(v.Comp, old); err != nil {
			return err
		}
		delete(s.varRID, v.Name)
		delete(s.varOID, v.Name)
		return s.vars.Delete(rid)
	}
}

// ---------------------------------------------------------------------------
// Object-set extents

// Insert adds a new object to an object-set extent. The tuple's nested
// own-ref components are internalized: embedded tuple values become owned
// nursery objects referenced by OID, and pre-existing references are
// claimed (failing if already owned elsewhere). The tuple value passed in
// is not retained.
//
// extra:requires db.wmu.W
func (s *Store) Insert(extent string, tv *value.Tuple) (oid.OID, error) {
	s.bump()
	h, ok := s.extents[extent]
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
	enc, err := codec.Encode(nil, iv)
	if err != nil {
		return oid.Nil, err
	}
	rid, err := h.Insert(enc)
	if err != nil {
		return oid.Nil, err
	}
	s.omap[id] = &objInfo{extent: extent, rid: rid, typ: tv.Type}
	s.rids[extent][rid] = id
	s.markObj(id)
	s.indexInsert(extent, id, iv.(*value.Tuple))
	return id, nil
}

// Get fetches an object by OID. Missing objects (deleted, or never
// created) report ok=false — a dangling reference reads as null.
func (s *Store) Get(id oid.OID) (*value.Tuple, bool, error) {
	info, ok := s.omap[id]
	if !ok {
		return nil, false, nil
	}
	h := s.heapFor(info)
	rec, err := h.Get(info.rid)
	if err != nil {
		return nil, false, err
	}
	v, err := codec.DecodeOne(rec, s.cat)
	if err != nil {
		return nil, false, err
	}
	tv, ok := v.(*value.Tuple)
	if !ok {
		return nil, false, fmt.Errorf("object %s is not a tuple", id)
	}
	return tv, true, nil
}

// TypeOf returns the runtime type of a live object.
func (s *Store) TypeOf(id oid.OID) (*types.TupleType, bool) {
	info, ok := s.omap[id]
	if !ok {
		return nil, false
	}
	return info.typ, true
}

// Owner returns the owning object of an own-ref component, or Nil.
func (s *Store) Owner(id oid.OID) oid.OID {
	if info, ok := s.omap[id]; ok {
		return info.owner
	}
	return oid.Nil
}

// Exists reports whether the OID identifies a live object.
func (s *Store) Exists(id oid.OID) bool {
	_, ok := s.omap[id]
	return ok
}

func (s *Store) heapFor(info *objInfo) *storage.HeapFile {
	if info.extent == "" {
		return s.nursery
	}
	return s.extents[info.extent]
}

// Delete destroys an object: removes it from its heap, destroys every
// own-ref component it owns (recursively), and removes its index
// entries, once the heap delete has succeeded. References elsewhere are
// left dangling and read as null.
//
// extra:requires db.wmu.W
func (s *Store) Delete(id oid.OID) error {
	s.bump()
	info, ok := s.omap[id]
	if !ok {
		return fmt.Errorf("delete of missing object %s", id)
	}
	s.markObj(id) // while the omap entry still names the extent
	tv, ok, err := s.Get(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("object %s vanished", id)
	}
	if err := s.heapFor(info).Delete(info.rid); err != nil {
		return err
	}
	if info.extent != "" {
		s.indexDelete(info.extent, id, tv)
		delete(s.rids[info.extent], info.rid)
	}
	delete(s.omap, id)
	comp := types.Component{Mode: types.Own, Type: tv.Type}
	return s.destroyOwned(comp, tv)
}

// Update rewrites an object's stored value. Own-ref components removed by
// the update are destroyed; components added are created or claimed.
// Index entries are touched only after the heap write has succeeded,
// and only in indexes whose key for the object changed.
//
// extra:requires db.wmu.W
func (s *Store) Update(id oid.OID, tv *value.Tuple) error {
	s.bump()
	info, ok := s.omap[id]
	if !ok {
		return fmt.Errorf("update of missing object %s", id)
	}
	s.markObj(id)
	old, ok, err := s.Get(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("object %s vanished", id)
	}
	comp := types.Component{Mode: types.Own, Type: info.typ}
	oldOwned := map[oid.OID]bool{}
	collectOwned(comp, old, oldOwned)

	iv, err := s.internalizeKeeping(comp, value.Copy(tv), id, oldOwned)
	if err != nil {
		return err
	}
	newOwned := map[oid.OID]bool{}
	collectOwned(comp, iv, newOwned)

	if info.extent != "" {
		if err := s.checkUnique(info.extent, id, iv.(*value.Tuple)); err != nil {
			return err
		}
	}
	enc, err := codec.Encode(nil, iv)
	if err != nil {
		return err
	}
	nrid, werr := s.heapFor(info).Update(info.rid, enc)
	if nrid.IsNil() {
		return werr // the record is unchanged
	}
	if info.extent != "" && nrid != info.rid {
		delete(s.rids[info.extent], info.rid)
		s.rids[info.extent][nrid] = id
	}
	info.rid = nrid
	s.markObj(id) // the record may have moved to another page
	info.typ = iv.(*value.Tuple).Type
	if info.extent != "" {
		s.indexMove(info.extent, id, old, iv.(*value.Tuple))
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

// ScanExtent iterates the live objects of an object-set extent.
func (s *Store) ScanExtent(extent string, fn func(id oid.OID, tv *value.Tuple) error) error {
	h, ok := s.extents[extent]
	if !ok {
		return fmt.Errorf("no object extent %s", extent)
	}
	byRID := s.rids[extent]
	return h.Scan(func(rid storage.RID, rec []byte) error {
		id, ok := byRID[rid]
		if !ok {
			return fmt.Errorf("extent %s: record %s has no OID", extent, rid)
		}
		v, err := codec.DecodeOne(rec, s.cat)
		if err != nil {
			return err
		}
		return fn(id, v.(*value.Tuple))
	})
}

// ExtentLen returns the number of objects in an object-set extent.
func (s *Store) ExtentLen(extent string) (int, error) {
	h, ok := s.extents[extent]
	if !ok {
		return 0, fmt.Errorf("no object extent %s", extent)
	}
	return h.Len()
}
