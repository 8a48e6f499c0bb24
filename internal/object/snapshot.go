package object

import (
	"fmt"
	"slices"
	"sort"
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
// write sets the object's entry in the edit — extent, owner, record RID
// and the tuple the write stored — and the edit copies only the nodes on
// the paths it changes. Mutating methods also mark, in the store's dirty
// sets, the heap page and slot of every extent record written or
// removed. A freeze seals the edit as the next snapshot's map, in O(1),
// decoding no record but one Load restored, rebuilds the chunks of the
// dirty pages, seals the element lists the window wrote (elemList.seal)
// and shares everything else with the previous snapshot by reference:
// an extent's scan view is one immutable chunk per heap page, variables
// and element lists are the store's working values, and an index tree
// is frozen with an O(1) path-copying Clone. A dirty page's new chunk
// stores the records the window wrote and inherits every other member
// from the page's previous chunk. The cost of a freeze follows the size
// of the write, not the size of the database. The sharing rests on one
// invariant: nothing reachable from a frozen Snapshot is mutated, and a
// node is writable only by the epoch that allocated it.

// pageChunk is the frozen content of one heap page of an object extent:
// the page's live records in slot order, as the objects' oids and their
// tuples.
type pageChunk struct {
	keys []oid.OID
	vals []*value.Tuple
}

// pageBuf is where a freeze builds one page's chunk: the slot walk
// appends to it, and the chunk takes an exact-size copy, so a chunk a
// snapshot keeps holds no spare capacity. A freeze reuses one from page
// to page and drops it when done.
type pageBuf pageChunk

func (b *pageBuf) add(id oid.OID, tv *value.Tuple) {
	b.keys, b.vals = append(b.keys, id), append(b.vals, tv)
}

// chunk returns a copy of the page built and empties the buffer.
func (b *pageBuf) chunk() *pageChunk {
	c := &pageChunk{keys: make([]oid.OID, len(b.keys)), vals: make([]*value.Tuple, len(b.vals))}
	copy(c.keys, b.keys)
	copy(c.vals, b.vals)
	clear(b.vals) // hold no value past its page
	b.keys, b.vals = b.keys[:0], b.vals[:0]
	return c
}

// extentSnap is the scan-order view of one object extent: a chunk per
// data page in HeapFile.Pages order — page order, then slot order,
// exactly the order a scan of the live heap file visits.
type extentSnap struct {
	chunks []*pageChunk
	n      int // records in all chunks
}

// pageDirt is what one publication window touched in one extent: the
// pages holding a record that was written or removed and, per page, the
// object last marked in each slot (oid.Nil for a slot never marked).
type pageDirt struct {
	all   bool                         // created or dropped in the window: no chunk carries over
	pages map[storage.PageID][]oid.OID // indexed by storage.SlotID
}

// refresh derives the extent's next view from pv (nil when the extent is
// new): chunks of the pages in d, and of pages the file has grown by,
// are rebuilt with freeze, which is handed the page's previous chunk
// (nil for a page new to the view); every other chunk is shared. The one
// cost left that follows the extent rather than the write is copying the
// chunk pointers, 8 bytes per 4 KiB page.
func (pv *extentSnap) refresh(h *storage.HeapFile, d *pageDirt, freeze func(pid storage.PageID, prev *pageChunk) (*pageChunk, error)) (*extentSnap, error) {
	pages := h.Pages()
	nv := &extentSnap{chunks: make([]*pageChunk, len(pages))}
	put := func(i int) error {
		old := nv.chunks[i]
		c, err := freeze(pages[i], old)
		if err != nil {
			return err
		}
		if old != nil {
			nv.n -= len(old.keys)
		}
		nv.chunks[i] = c
		nv.n += len(c.keys)
		return nil
	}
	kept := 0
	if pv != nil && !d.all {
		// Pages are only ever appended between two DropAlls, and a drop
		// sets d.all: position i is the same page in both views.
		kept = copy(nv.chunks, pv.chunks)
		nv.n = pv.n
		dirty := make([]storage.PageID, 0, len(d.pages))
		for pid := range d.pages {
			dirty = append(dirty, pid)
		}
		at := func(pid storage.PageID) int { i, _ := h.PageIndex(pid); return i }
		slices.SortFunc(dirty, func(a, b storage.PageID) int { return at(a) - at(b) }) // file order
		for _, pid := range dirty {
			if i, ok := h.PageIndex(pid); ok && i < kept {
				if err := put(i); err != nil {
					return nil, err
				}
			}
		}
	}
	for i := kept; i < len(pages); i++ {
		if err := put(i); err != nil {
			return nil, err
		}
	}
	return nv, nil
}

// Snapshot is an immutable view of the store at one version: the data,
// and the frozen catalog and grant table that describe it. All methods
// are safe for concurrent use by any number of goroutines with no
// locking: nothing reachable from a frozen Snapshot is ever mutated.
// It is the executor's one read surface.
type Snapshot struct {
	version uint64
	cat     *catalog.Catalog
	objs    *objMap
	extents map[string]*extentSnap
	elems   map[string]*elemList
	vars    map[string]value.Value
	indexes map[string]*storage.BTree
}

// Version returns the store version this snapshot was published at.
func (sn *Snapshot) Version() uint64 { return sn.version }

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

// ScanExtent iterates the extent's objects in the heap order the live
// store would visit them.
func (sn *Snapshot) ScanExtent(extent string, fn func(id oid.OID, tv *value.Tuple) error) error {
	es, ok := sn.extents[extent]
	if !ok {
		return fmt.Errorf("no object extent %s", extent)
	}
	for _, c := range es.chunks {
		for i, id := range c.keys {
			if err := fn(id, c.vals[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExtentLen returns the number of objects in an object-set extent.
func (sn *Snapshot) ExtentLen(extent string) (int, error) {
	es, ok := sn.extents[extent]
	if !ok {
		return 0, fmt.Errorf("no object extent %s", extent)
	}
	return es.n, nil
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

// ExportObjects returns every object live at the snapshot in the same
// stable order Store.ExportObjects uses (extent name, then OID). The
// snapshot keeps no encoded form: every record the store holds was
// written by codec.Encode (RestoreObject re-encodes what it is given),
// and Encode(DecodeOne(b)) == b for such b, so encoding the frozen tuple
// here gives the bytes on the heap page and a snapshot-backed dump is
// byte-identical to a quiesced live dump of the same version.
func (sn *Snapshot) ExportObjects() ([]ExportObject, error) {
	out := make([]ExportObject, 0, sn.objs.n)
	var err error
	sn.objs.each(func(id oid.OID, so snapObj) {
		enc, eerr := encode(so.tv)
		if eerr != nil && err == nil {
			err = fmt.Errorf("export %s: %w", id, eerr)
		}
		out = append(out, ExportObject{Extent: so.extentName(), OID: id, Owner: so.owner, Data: enc})
	})
	if err != nil {
		return nil, err
	}
	// each visits in OID order; a stable sort on the extent keeps it
	// within each extent.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Extent < out[j].Extent })
	return out, nil
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
// or removed, which it sealed), mvcc.commit.dirty_pages (heap pages
// whose slots it walked) and mvcc.commit.decoded (records it decoded:
// the objects Load restored, which alone have no working value yet),
// and every publication the mvcc.version gauge.
// A write statement freezes once (in its Commit) unless it is a
// procedure call, whose body statements each take a View. The counts
// are of work done, not of marks found, so a freeze that did more than
// its write called for shows here.
func (s *Store) SetMetrics(reg *metrics.Registry) {
	s.obs.Store(&commitObs{
		freeze:     reg.Histogram("mvcc.commit.freeze"),
		dirtyObjs:  reg.CountHistogram("mvcc.commit.dirty_objs"),
		dirtyPages: reg.CountHistogram("mvcc.commit.dirty_pages"),
		decoded:    reg.CountHistogram("mvcc.commit.decoded"),
		version:    reg.Gauge("mvcc.version"),
	})
}

// commitObs is where freeze and Commit report. It is attached, not
// stored state: an atomic pointer, so attaching takes no lock and bumps
// no version.
type commitObs struct {
	freeze, dirtyObjs, dirtyPages, decoded *metrics.Histogram
	version                                *metrics.Gauge
}

func dirtOf(m map[string]*pageDirt, name string) *pageDirt {
	d := m[name]
	if d == nil {
		d = &pageDirt{pages: make(map[storage.PageID][]oid.OID)}
		m[name] = d
	}
	return d
}

// put writes id's directory entry and, for an extent member, marks the
// slot its record is in with id, so the next freeze puts the entry's
// tuple in that slot's place in its page's chunk. Every write of an
// extent record puts the entry that names its slot; a freeze relies on
// that to take every unmarked slot's member from the previous chunk. A
// write that may move or remove the record puts the entry first, while
// it still names the old slot, and again once the record has moved.
func (s *Store) put(id oid.OID, so snapObj) {
	s.dir.set(id, so)
	if so.ext == nil {
		return
	}
	rid := so.rid()
	d := dirtOf(s.dirtyExts, so.ext.name)
	slots := d.pages[rid.Page]
	if n := int(rid.Slot) + 1; len(slots) < n {
		slots = append(slots, make([]oid.OID, n-len(slots))...)
	}
	slots[rid.Slot] = id
	d.pages[rid.Page] = slots
}

// markExtent records that an extent was created or dropped.
func (s *Store) markExtent(name string) { dirtOf(s.dirtyExts, name).all = true }
func (s *Store) markIndexes()           { s.dirtyIdx = true }

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
// extra:bumps
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
// extra:bumps
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
// the rest of the head from the dirty sets: the dirty pages of each
// extent get fresh chunks in its scan view, the element lists the window
// wrote are sealed, the catalog is frozen if it changed, and everything
// else is shared. The directory already holds every object the window
// wrote; the freeze only decodes the pending entries Load restored, and
// then reallocates the directory's new leaves in one run
// (objEdit.regroup). No-op when nothing changed since the last freeze.
// On error the head and the dirty sets are left as they were, so the
// next freeze redoes the work.
//
// extra:requires db.wmu.W
// extra:bumps
func (s *Store) freeze() error {
	catEdited := s.cat.Edits() != s.catEdits
	if s.dir.written == 0 && len(s.dirtyExts) == 0 && !s.valsOwned &&
		!s.dirtyIdx && !catEdited {
		return nil
	}
	start := time.Now()
	// A freeze is itself a store-state change: bump so every frozen
	// snapshot carries a version of its own, distinct from the working
	// version it was built from and from every earlier snapshot.
	s.bump()
	prev := s.head
	cat := prev.cat
	if catEdited {
		cat = s.cat.Freeze()
	}

	// Restored components, which no scan view holds, decode here, in
	// the order restored; extent members decode below, with the page
	// they are on.
	workPages, decoded := 0, 0
	for _, r := range s.restored {
		so, live := s.dir.get(r.OID)
		if !live || !so.pending() {
			continue
		}
		tv, err := s.readRecord(r.OID, so)
		if err != nil {
			return err
		}
		decoded++
		so.tv = tv
		s.dir.set(r.OID, so)
	}
	var buf pageBuf

	// Dropped entries disappear by not being carried over: the carry
	// loops skip dirty names, and the rebuild loops skip names no longer
	// live in the working state.
	exts := make(map[string]*extentSnap, len(prev.extents)+len(s.dirtyExts))
	for k, v := range prev.extents {
		if _, dirty := s.dirtyExts[k]; !dirty {
			exts[k] = v
		}
	}
	for _, name := range sortedKeys(s.dirtyExts) {
		x, live := s.extents[name]
		if !live {
			continue
		}
		d := s.dirtyExts[name]
		es, err := prev.extents[name].refresh(x.heap, d, func(pid storage.PageID, pc *pageChunk) (*pageChunk, error) {
			workPages++
			c, dec, err := s.freezeExtentPage(&buf, x, pid, d.pages[pid], pc)
			decoded += dec
			return c, err
		})
		if err != nil {
			return err
		}
		exts[name] = es
	}
	if s.valsOwned {
		for name, l := range s.elems {
			if l.mine != nil {
				s.elems[name] = l.seal()
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
	s.head = &Snapshot{
		version: s.version.Load(),
		cat:     cat,
		objs:    s.dir.done(),
		extents: exts,
		elems:   s.elems,
		vars:    s.varVals,
		indexes: indexes,
	}
	s.dir = s.head.objs.edit()
	s.restored = nil
	s.valsOwned = false
	s.catEdits = s.cat.Edits()
	if o := s.obs.Load(); o != nil {
		o.freeze.Observe(time.Since(start))
		o.dirtyObjs.ObserveCount(workObjs)
		o.dirtyPages.ObserveCount(workPages)
		o.decoded.ObserveCount(decoded)
	}
	clear(s.dirtyExts)
	s.dirtyIdx = false
	return nil
}

// freezeExtentPage builds the chunk of one page of extent x by walking
// the page's slot directory under one pin, copying no record. A slot
// marked in the window (slots, indexed by slot id) holds the record of
// the object named there, which contributes its directory entry's
// tuple; only a pending entry, one Load restored, is decoded, straight
// from the pinned page (an overflow record once the walk is done), and
// the directory takes the decoded tuple. Any other live slot holds a
// record the window did not write, which is still the record it held at
// the last freeze, since slot ids are stable and every write marks its
// slot: it is the next member of the previous chunk whose entry the
// window neither wrote nor removed. So only written records cost a
// lookup; Load's bulk commit, where there is no previous chunk and
// every slot is marked, takes the same path and lays the decoded tuples
// out in scan order. It also returns how many records it decoded.
func (s *Store) freezeExtentPage(b *pageBuf, x *objExtent, pid storage.PageID, slots []oid.OID, prev *pageChunk) (*pageChunk, int, error) {
	// The page's live slots are members of prev the window left alone
	// and slots it marked, so this bounds them.
	n := len(slots)
	if prev != nil {
		n += len(prev.keys)
	}
	b.keys, b.vals = slices.Grow(b.keys, n), slices.Grow(b.vals, n)
	var spilled []int     // chunk positions of restored overflow records
	decoded, next := 0, 0 // next: the previous chunk's next member to consider
	err := x.heap.WalkPage(pid, func(sl storage.SlotID, rec []byte) error {
		rid := storage.RID{Page: pid, Slot: sl}
		if int(sl) < len(slots) && !slots[sl].IsNil() {
			id := slots[sl]
			so, live := s.dir.get(id)
			if !live || so.ext != x || so.rid() != rid {
				return fmt.Errorf("extent %s: record %s is marked for %s, which is not there", x.name, rid, id)
			}
			tv := so.tv
			if so.pending() && rec == nil {
				spilled, tv = append(spilled, len(b.keys)), nil
			} else if so.pending() {
				var err error
				if tv, err = decodeTuple(id, rec, s.cat); err != nil {
					return err
				}
				decoded++
				so.tv = tv
				s.dir.set(id, so)
			}
			b.add(id, tv)
			return nil
		}
		for prev != nil && next < len(prev.keys) {
			if _, live, wrote := s.dir.lookup(prev.keys[next]); live && !wrote {
				break
			}
			next++
		}
		if prev == nil || next == len(prev.keys) {
			return fmt.Errorf("extent %s: record %s was not written and has no previous member", x.name, rid)
		}
		b.add(prev.keys[next], prev.vals[next])
		next++
		return nil
	})
	for k := 0; err == nil && k < len(spilled); k++ {
		i := spilled[k]
		id := b.keys[i]
		so, _ := s.dir.get(id)
		if b.vals[i], err = s.readRecord(id, so); err == nil {
			so.tv = b.vals[i]
			s.dir.set(id, so)
			decoded++
		}
	}
	c := b.chunk() // empties the buffer, on error too
	if err != nil {
		return nil, 0, err
	}
	return c, decoded, nil
}
