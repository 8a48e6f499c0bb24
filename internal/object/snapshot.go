package object

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/value"
)

// The snapshot layer gives every statement an immutable view of the
// store: a writer builds new extent/tuple state under the write lock and
// publishes it atomically with Commit, while readers pinned to an older
// Snapshot keep seeing exactly the versions that were live when they
// pinned. A Snapshot *is* the store at one version, forever, so a reader
// fetches from it directly and needs no cache of its own in front. A
// write statement reads one too: View freezes the working state without
// publishing it, and the statement's reads bind that.
//
// The store's object directory is the head snapshot's object map, a
// persistent trie (objmap.go), under an owner-tagged edit: every object
// write sets the object's entry in the edit — extent, owner, list
// position and the tuple the write stored — and the edit copies only the
// nodes on the paths it changes. An extent's scan order is its member
// list, a chunk list (chunks.go) whose edit copies only the chunks the
// window writes. A freeze seals the directory edit as the next
// snapshot's map, in O(1), decoding nothing but what Load restored,
// seals the member and element lists the window wrote (chunkList.seal)
// and shares everything else with the previous snapshot by reference:
// variables are the store's working values, and an index tree is frozen
// with an O(1) path-copying Clone. The next snapshot stores the chunks
// its window wrote and inherits the rest. The cost of a freeze follows
// the size of the write, not the size of the database. The sharing
// rests on one invariant: nothing reachable from a frozen Snapshot is
// mutated, and a node or chunk is writable only by the window that
// copied it.

// Snapshot is an immutable view of the store at one version: the data,
// and the frozen catalog and grant table that describe it. All methods
// are safe for concurrent use by any number of goroutines with no
// locking: nothing reachable from a frozen Snapshot is ever mutated.
// It is the executor's one read surface.
type Snapshot struct {
	version uint64
	cat     *catalog.Catalog
	objs    *objMap
	extents map[string]*memberList
	elems   map[string]*elemList
	vars    map[string]value.Value
	indexes map[string]*storage.BTree

	// oids is the OID generator's last OID at the freeze, which an
	// abort restores.
	oids oid.OID
}

// Version returns the store version this snapshot was published at.
func (sn *Snapshot) Version() uint64 { return sn.version }

// LastOID returns the last OID the store had handed out when the
// snapshot was frozen.
func (sn *Snapshot) LastOID() oid.OID { return sn.oids }

// Catalog returns the frozen catalog the snapshot was published with:
// exactly the schema, indexes and grants its data was written under.
func (sn *Snapshot) Catalog() *catalog.Catalog { return sn.cat }

// Get fetches an object by OID as of the snapshot. Missing objects
// (deleted before the snapshot, or created after it) report ok=false.
func (sn *Snapshot) Get(id oid.OID) (*value.Tuple, bool, error) {
	so, ok := sn.objs.get(id)
	return so.tv, ok, nil
}

// Exists reports whether the OID identified a live object at the
// snapshot's version.
func (sn *Snapshot) Exists(id oid.OID) bool {
	_, ok := sn.objs.get(id)
	return ok
}

// ScanExtent iterates the extent's objects in its member list's order.
func (sn *Snapshot) ScanExtent(extent string, fn func(id oid.OID, tv *value.Tuple) error) error {
	l, ok := sn.extents[extent]
	if !ok {
		return fmt.Errorf("no object extent %s", extent)
	}
	for _, c := range l.chunks { // sealed: no deleted member
		for _, m := range c {
			if err := fn(m.id, m.tv); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExtentLen returns the number of objects in an object-set extent.
func (sn *Snapshot) ExtentLen(extent string) (int, error) {
	l, ok := sn.extents[extent]
	if !ok {
		return 0, fmt.Errorf("no object extent %s", extent)
	}
	return l.n, nil
}

// ScanElems iterates a ref-set or value-set extent, handing out each
// element's position, which Store.DeleteElem takes while this snapshot
// is the store's head.
func (sn *Snapshot) ScanElems(extent string, fn func(pos int, v value.Value) error) error {
	l, ok := sn.elems[extent]
	if !ok {
		return fmt.Errorf("no element extent %s", extent)
	}
	return l.each(fn)
}

// ElemLen counts the elements of a ref/value-set extent.
func (sn *Snapshot) ElemLen(extent string) (int, error) {
	es, ok := sn.elems[extent]
	if !ok {
		return 0, fmt.Errorf("no element extent %s", extent)
	}
	return es.n, nil
}

// IsObjectExtent reports whether the name was an object-set extent at
// the snapshot's version.
func (sn *Snapshot) IsObjectExtent(name string) bool {
	_, ok := sn.extents[name]
	return ok
}

// IsElemExtent reports whether the name was a ref/value-set extent.
func (sn *Snapshot) IsElemExtent(name string) bool {
	_, ok := sn.elems[name]
	return ok
}

// GetVar returns the snapshot value of a singleton or array variable.
func (sn *Snapshot) GetVar(name string) (value.Value, error) {
	v, ok := sn.vars[name]
	if !ok {
		return nil, fmt.Errorf("no database variable %s", name)
	}
	return v, nil
}

// IndexLookup returns the OIDs whose indexed key is in [lo, hi] as of
// the snapshot. Every index of the snapshot's catalog has its tree
// frozen in the snapshot: a freeze takes both from one working state.
func (sn *Snapshot) IndexLookup(ix *catalog.Index, lo, hi []byte, incLo, incHi bool) []oid.OID {
	var out []oid.OID
	sn.indexes[ix.Name].Range(lo, hi, incLo, incHi, func(_ []byte, v uint64) bool {
		out = append(out, oid.OID(v))
		return true
	})
	return out
}

// ExportObjects returns every object live at the snapshot, encoded, in
// the order Store.ExportObjects gives (exportObjects).
func (sn *Snapshot) ExportObjects() ([]ExportObject, error) {
	return exportObjects(sn.objs, nil)
}

// ExportElems returns the encoded elements of a ref/value-set extent as
// of the snapshot.
func (sn *Snapshot) ExportElems(extent string) ([][]byte, error) {
	var out [][]byte
	err := sn.ScanElems(extent, func(_ int, v value.Value) error {
		enc, err := encode(v)
		if err != nil {
			return err
		}
		out = append(out, enc)
		return nil
	})
	return out, err
}

// ExportVar returns the encoded value of a singleton/array variable as
// of the snapshot.
func (sn *Snapshot) ExportVar(name string) ([]byte, error) {
	v, err := sn.GetVar(name)
	if err != nil {
		return nil, err
	}
	return encode(v)
}

// ---------------------------------------------------------------------------
// Store side: dirty tracking, commit, publication.

// Snapshot returns the latest published snapshot. Never nil: New
// publishes an empty snapshot at version 0.
func (s *Store) Snapshot() *Snapshot {
	return s.snap.Load()
}

// SetMetrics attaches the engine metrics registry; every freeze that
// finds work then records mvcc.commit.freeze (time to build the
// snapshot), mvcc.commit.dirty_objs (directory entries the window wrote
// or removed, and those the freeze re-pointed, which it sealed),
// mvcc.commit.dirty_chunks (member-list chunks the window wrote, which
// it sealed) and mvcc.commit.decoded (records it decoded: the objects
// Load restored, which alone have no working value yet), and every
// publication the mvcc.version gauge.
// A write statement freezes once (in its Commit) unless it is a
// procedure call, whose body statements each take a View. The counts
// are of work done, not of marks found, so a freeze that did more than
// its write called for shows here.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	s.obs.Store(&commitObs{
		freeze:      reg.Histogram("mvcc.commit.freeze"),
		dirtyObjs:   reg.CountHistogram("mvcc.commit.dirty_objs"),
		dirtyChunks: reg.CountHistogram("mvcc.commit.dirty_chunks"),
		decoded:     reg.CountHistogram("mvcc.commit.decoded"),
		version:     reg.Gauge("mvcc.version"),
	})
}

// commitObs is where freeze and Commit report. It is attached, not
// stored state: an atomic pointer, so attaching takes no lock.
type commitObs struct {
	freeze, dirtyObjs, dirtyChunks, decoded *metrics.Histogram
	version                                 *metrics.Gauge
}

func (s *Store) markIndexes() { s.dirtyIdx = true }

// View returns the store's current state as an immutable snapshot
// without publishing it: what changed since the last freeze is frozen on
// top of the last frozen head, exactly as Commit would, and becomes the
// new head. Concurrent readers keep the published snapshot; the next
// Commit publishes the head. When nothing changed it returns the head
// as it is, in O(1). The read phase of a write statement binds it, so
// every statement, read or write, reads a Snapshot. The caller must hold
// the write lock.
//
// extra:requires db.wmu.W
func (s *Store) View() (*Snapshot, error) {
	if err := s.freeze(); err != nil {
		return nil, err
	}
	return s.head, nil
}

// Commit freezes what is left unfrozen and publishes the head with one
// atomic store. No-op when the head is already the published snapshot
// (published reports whether a new snapshot actually went out — the WAL
// layer logs exactly the statements that published). However many Views
// a write statement took, readers see one publication for it. The
// caller must hold the write lock (the same exclusion every mutating
// method requires); readers never block on it — they keep their pinned
// snapshot.
//
// extra:requires db.wmu.W
func (s *Store) Commit() (published bool, err error) {
	if err := s.freeze(); err != nil {
		return false, err
	}
	if s.head == s.snap.Load() {
		return false, nil
	}
	s.snap.Store(s.head)
	if o := s.obs.Load(); o != nil {
		o.version.Set(int64(s.head.version))
	}
	return true, nil
}

// freeze seals the directory as the next head's object map and builds
// the rest of the head from what the window dirtied: the member lists it
// wrote are sealed, and the directory entries of the members their
// compaction moved re-pointed; the element lists it wrote are sealed;
// the catalog is frozen if it changed; and everything else is shared.
// The directory already holds every object the window wrote; the freeze
// only decodes the pending entries Load restored, in restore order, and
// then reallocates the directory's new leaves in one run
// (objEdit.regroup). The head it builds carries the next version.
// No-op when nothing changed since the last freeze. On error the head
// is left as it was; the caller aborts.
//
// extra:requires db.wmu.W
func (s *Store) freeze() error {
	catEdited := s.cat.Edits() != s.catEdits
	if !s.dirty(catEdited) {
		return nil
	}
	start := time.Now()
	prev := s.head
	cat := prev.cat
	if catEdited {
		cat = s.cat.Freeze()
	}

	decoded := 0
	for _, r := range s.restored {
		so, live := s.dir.get(r.id)
		if !live || !so.pending() {
			continue
		}
		tv, err := decodeTuple(r.id, r.data, s.cat)
		if err != nil {
			return err
		}
		decoded++
		if so.ext != nil {
			if err := s.members(so.ext).set(r.pos, member{r.id, tv}); err != nil {
				return err
			}
		}
		s.dir.set(r.id, s.settle(so, tv))
	}

	exts, chunks := prev.extents, 0
	if s.dirtyExts {
		exts = make(map[string]*memberList, len(s.extents))
		for _, name := range sortedKeys(s.extents) {
			x := s.extents[name]
			if x.members.mine != nil {
				for _, wrote := range x.members.mine {
					if wrote {
						chunks++
					}
				}
				x.members = x.members.seal(func(pos int, m member) {
					so, _ := s.dir.get(m.id)
					so.at = uint64(pos)
					s.dir.set(m.id, so)
				})
			}
			exts[name] = x.members
		}
	}
	if s.valsOwned {
		for name, l := range s.elems {
			if l.mine != nil {
				s.elems[name] = l.seal(nil)
			}
		}
	}

	// Clone freezes each index as it stands and moves the working tree
	// to a new epoch, so its next write copies the path it changes and
	// leaves the published nodes alone. Rebuilt from the catalog every
	// commit so dropped indexes disappear without their own dirty
	// tracking.
	indexes := make(map[string]*storage.BTree)
	for _, name := range cat.IndexNames() {
		if ix, ok := cat.Index(name); ok {
			indexes[name] = ix.Tree.Clone()
		}
	}

	if decoded > 0 {
		s.dir.m.root = s.dir.regroup(s.dir.m.root)
	}
	workObjs := s.dir.written
	s.stamped++
	s.head = &Snapshot{
		version: s.stamped,
		cat:     cat,
		objs:    s.dir.done(),
		extents: exts,
		elems:   s.elems,
		vars:    s.varVals,
		oids:    s.gen.Last(),
		indexes: indexes,
	}
	s.dir = s.head.objs.edit()
	s.restored = nil
	s.valsOwned = false
	s.dirtyExts = false
	s.dirtyIdx = false
	s.catEdits = s.cat.Edits()
	if o := s.obs.Load(); o != nil {
		o.freeze.Observe(time.Since(start))
		o.dirtyObjs.ObserveCount(workObjs)
		o.dirtyChunks.ObserveCount(chunks)
		o.decoded.ObserveCount(decoded)
	}
	return nil
}

// dirty reports whether anything changed since the last freeze, the
// OID generator included: an edit that only advanced it (OIDS) is state
// the next snapshot carries.
func (s *Store) dirty(catEdited bool) bool {
	return s.dir.written > 0 || s.dirtyExts || s.valsOwned || s.dirtyIdx || catEdited || s.gen.Last() != s.head.oids
}

// Abort drops the window: it puts the working state back to the
// published snapshot, whatever the window wrote and whatever of it Views
// froze since, so a failed write publishes nothing. The OID generator
// is rewound with it, so the next write allocates the OIDs the dropped
// one did: an OID no snapshot published is not used. The working catalog and its
// grant table are put back in place (catalog.Reset moves the catalog
// version past every version the window used, so nothing cached under
// one is served again), and each index's working tree is cloned from
// the snapshot's. Extent structs are kept: the snapshot's directory
// entries point at them.
//
// extra:requires db.wmu.W
func (s *Store) Abort() {
	sn := s.snap.Load()
	s.gen.Reset(sn.oids)
	catEdited := s.cat.Edits() != s.catEdits
	if s.head == sn && !s.dirty(catEdited) {
		return
	}
	if catEdited || s.head.cat != sn.cat {
		s.cat.Reset(sn.cat)
	}
	s.catEdits = s.cat.Edits()
	for _, name := range s.cat.IndexNames() {
		ix, _ := s.cat.Index(name)
		ix.Tree = sn.indexes[name].Clone()
	}
	s.extents = make(map[string]*objExtent, len(sn.extents))
	for name, l := range sn.extents {
		x := &objExtent{name: name}
		for _, c := range l.chunks { // sealed: c[0] is a live member
			if len(c) > 0 {
				so, _ := sn.objs.get(c[0].id)
				x = so.ext
				break
			}
		}
		x.members = l
		s.extents[name] = x
	}
	s.varVals, s.elems, s.valsOwned = sn.vars, sn.elems, false
	s.dir, s.restored = sn.objs.edit(), nil
	s.head, s.dirtyExts, s.dirtyIdx = sn, false, false
}
