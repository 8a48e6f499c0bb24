package object

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/codec"
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
// Mutating methods record what they touched in the store's dirty sets —
// the objects, and the heap page and slot of every record written or
// removed — and keep the tuple each object write stored (Store.work). A
// freeze seals those tuples into the snapshot, decoding no object record
// but one Load restored (element and variable records, which have no
// working value, it decodes from their pages), and shares everything
// else with the previous snapshot by reference: the object map is a
// persistent trie (objmap.go), an extent's scan view is one immutable
// chunk per heap page, and an index tree is frozen with an O(1)
// path-copying Clone. A dirty page's new chunk stores the records the
// window wrote and inherits every other member from the page's previous
// chunk. The cost of a freeze follows the size of the write, not the
// size of the database. The sharing rests on one invariant: nothing
// reachable from a frozen Snapshot is mutated, and a node is writable
// only by the epoch that allocated it.

// pageChunk is the frozen content of one heap page of an extent: the
// page's live records in slot order. Object extents key a record by the
// object's oid and hold its decoded tuple; element extents key it by RID
// and hold the decoded element.
type pageChunk[K, V any] struct {
	keys []K
	vals []V
}

// pageBuf is where a freeze builds one page's chunk: the slot walk
// appends to it, and the chunk takes an exact-size copy, so a chunk a
// snapshot keeps holds no spare capacity. A freeze reuses one per kind
// of extent from page to page and drops it when done.
type pageBuf[K, V any] struct {
	keys []K
	vals []V
}

// reserve makes room for n more records without reallocating.
func (b *pageBuf[K, V]) reserve(n int) {
	b.keys, b.vals = slices.Grow(b.keys, n), slices.Grow(b.vals, n)
}

func (b *pageBuf[K, V]) add(k K, v V) {
	b.keys, b.vals = append(b.keys, k), append(b.vals, v)
}

// chunk returns a copy of the page built and empties the buffer.
func (b *pageBuf[K, V]) chunk() *pageChunk[K, V] {
	c := &pageChunk[K, V]{keys: make([]K, len(b.keys)), vals: make([]V, len(b.vals))}
	copy(c.keys, b.keys)
	copy(c.vals, b.vals)
	clear(b.vals) // hold no value past its page
	b.keys, b.vals = b.keys[:0], b.vals[:0]
	return c
}

// pageView is the scan-order view of one extent: a chunk per data page
// in HeapFile.Pages order — page order, then slot order, exactly the
// order a scan of the live heap file visits.
type pageView[K, V any] struct {
	chunks []*pageChunk[K, V]
	n      int // records in all chunks
}

type (
	extentSnap = pageView[oid.OID, *value.Tuple]
	elemSnap   = pageView[storage.RID, value.Value]
)

// pageDirt is what one publication window touched in one extent: the
// pages holding a record that was written or removed and, in an object
// extent, per page the object last marked in each slot (oid.Nil for a
// slot never marked). Element extents keep no slots.
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
func (pv *pageView[K, V]) refresh(h *storage.HeapFile, d *pageDirt, freeze func(pid storage.PageID, prev *pageChunk[K, V]) (*pageChunk[K, V], error)) (*pageView[K, V], error) {
	pages := h.Pages()
	nv := &pageView[K, V]{chunks: make([]*pageChunk[K, V], len(pages))}
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
		dirty := make([]int, 0, len(d.pages))
		for pid := range d.pages {
			if i, ok := h.PageIndex(pid); ok && i < kept {
				dirty = append(dirty, i)
			}
		}
		sort.Ints(dirty) // file order, whatever order the map gave
		for _, i := range dirty {
			if err := put(i); err != nil {
				return nil, err
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
	elems   map[string]*elemSnap
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

// Deref resolves a reference value against the snapshot.
func (sn *Snapshot) Deref(v value.Value) (*value.Tuple, bool, error) {
	r, ok := v.(value.Ref)
	if !ok || r.OID.IsNil() {
		return nil, false, nil
	}
	return sn.Get(r.OID)
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

// ScanElems iterates a ref-set or value-set extent.
func (sn *Snapshot) ScanElems(extent string, fn func(rid storage.RID, v value.Value) error) error {
	es, ok := sn.elems[extent]
	if !ok {
		return fmt.Errorf("no element extent %s", extent)
	}
	for _, c := range es.chunks {
		for i, rid := range c.keys {
			if err := fn(rid, c.vals[i]); err != nil {
				return err
			}
		}
	}
	return nil
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
		out = append(out, ExportObject{Extent: so.extent, OID: id, Owner: so.owner, Data: enc})
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
	err := sn.ScanElems(extent, func(_ storage.RID, v value.Value) error {
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
// snapshot), mvcc.commit.dirty_objs (objects it sealed into the snapshot
// or removed from it), mvcc.commit.dirty_pages (heap pages whose slots it
// walked) and mvcc.commit.decoded (records it decoded from a page: what
// Load restored, and the elements and variables a window wrote, which
// have no working value), and every publication the mvcc.version gauge.
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

// markObj records that an object changed (or is about to be deleted) so
// the next freeze refreshes it, and that the slot holding its record
// did, so the freeze puts the object's working value in that slot's
// place in its page's chunk. Call
// while the omap entry exists and names the record's slot: after an
// insert, before a delete, and on both sides of an update that may move
// the record. Every write of an extent record marks its slot with the
// object now in it; a freeze relies on that to take every unmarked
// slot's member from the previous chunk.
func (s *Store) markObj(id oid.OID) {
	s.dirtyObjs[id] = struct{}{}
	if info, ok := s.omap[id]; ok && info.extent != "" {
		d := dirtOf(s.dirtyExts, info.extent)
		slots := d.pages[info.rid.Page]
		if n := int(info.rid.Slot) + 1; len(slots) < n {
			slots = append(slots, make([]oid.OID, n-len(slots))...)
		}
		slots[info.rid.Slot] = id
		d.pages[info.rid.Page] = slots
	}
}

// markExtent and markElems record that an extent was created or dropped.
func (s *Store) markExtent(name string) { dirtOf(s.dirtyExts, name).all = true }
func (s *Store) markElems(name string)  { dirtOf(s.dirtyElems, name).all = true }

// markElemPage records that an element record on the page was written
// or removed.
func (s *Store) markElemPage(name string, pid storage.PageID) {
	d := dirtOf(s.dirtyElems, name)
	if _, ok := d.pages[pid]; !ok {
		d.pages[pid] = nil // element chunks are rebuilt whole: no slots
	}
}

func (s *Store) markVar(name string) { s.dirtyVars[name] = struct{}{} }
func (s *Store) markIndexes()        { s.dirtyIdx = true }

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

// freeze builds the next head from the dirty sets: the working values of
// dirty objects are path-copied into the head's object map, the dirty
// pages of each extent get fresh chunks in its scan view, the catalog is
// frozen if it changed, and everything else is shared. No-op when
// nothing changed since the last freeze. On error the head and the
// dirty sets are left as they were, so the next freeze redoes the work.
//
// extra:requires db.wmu.W
// extra:bumps
func (s *Store) freeze() error {
	catEdited := s.cat.Edits() != s.catEdits
	if len(s.dirtyObjs) == 0 && len(s.dirtyExts) == 0 && len(s.dirtyElems) == 0 &&
		len(s.dirtyVars) == 0 && !s.dirtyIdx && !catEdited {
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

	// Extent members are frozen below, with the page they are on; that
	// leaves the deleted and the nursery components, which no scan view
	// holds.
	edit := prev.objs.edit()
	workObjs, workPages, decoded := 0, 0, 0
	var objBuf pageBuf[oid.OID, *value.Tuple]
	var elemBuf pageBuf[storage.RID, value.Value]
	for _, id := range sortedOIDs(s.dirtyObjs) {
		info, live := s.omap[id]
		if live && info.extent != "" {
			continue
		}
		workObjs++
		if !live {
			edit.del(id)
			continue
		}
		tv, ok := s.stored(id)
		if !ok {
			var err error
			if tv, err = s.working(id, info); err != nil {
				return err
			}
			decoded++
		}
		edit.set(id, snapObj{owner: info.owner, tv: tv})
	}

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
		h, live := s.extents[name]
		if !live {
			continue
		}
		d := s.dirtyExts[name]
		es, err := prev.extents[name].refresh(h, d, func(pid storage.PageID, pc *pageChunk[oid.OID, *value.Tuple]) (*pageChunk[oid.OID, *value.Tuple], error) {
			workPages++
			c, sealed, dec, err := s.freezeExtentPage(edit, &objBuf, name, h, pid, d.pages[pid], pc)
			workObjs += sealed
			decoded += dec
			return c, err
		})
		if err != nil {
			return err
		}
		exts[name] = es
	}

	elems := make(map[string]*elemSnap, len(prev.elems)+len(s.dirtyElems))
	for k, v := range prev.elems {
		if _, dirty := s.dirtyElems[k]; !dirty {
			elems[k] = v
		}
	}
	for _, name := range sortedKeys(s.dirtyElems) {
		h, live := s.elems[name]
		if !live {
			continue
		}
		es, err := prev.elems[name].refresh(h, s.dirtyElems[name], func(pid storage.PageID, _ *pageChunk[storage.RID, value.Value]) (*pageChunk[storage.RID, value.Value], error) {
			workPages++
			c, err := s.freezeElemPage(&elemBuf, h, pid)
			if c != nil {
				decoded += len(c.keys)
			}
			return c, err
		})
		if err != nil {
			return err
		}
		elems[name] = es
	}

	vars := make(map[string]value.Value, len(prev.vars)+len(s.dirtyVars))
	for k, v := range prev.vars {
		if _, dirty := s.dirtyVars[k]; !dirty {
			vars[k] = v
		}
	}
	for _, name := range sortedKeys(s.dirtyVars) {
		if _, live := s.varRID[name]; !live {
			continue
		}
		v, err := s.GetVar(name)
		if err != nil {
			return err
		}
		decoded++
		vars[name] = v
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

	s.head = &Snapshot{
		version: s.version.Load(),
		cat:     cat,
		objs:    edit.done(),
		extents: exts,
		elems:   elems,
		vars:    vars,
		indexes: indexes,
	}
	s.catEdits = s.cat.Edits()
	if o := s.obs.Load(); o != nil {
		o.freeze.Observe(time.Since(start))
		o.dirtyObjs.ObserveCount(workObjs)
		o.dirtyPages.ObserveCount(workPages)
		o.decoded.ObserveCount(decoded)
	}
	// Fresh maps, not clear: ranging over or clearing a map costs its
	// capacity, and these have held every object of the largest write.
	s.dirtyObjs = make(map[oid.OID]struct{})
	s.work = make(map[oid.OID]*value.Tuple)
	clear(s.dirtyExts)
	clear(s.dirtyElems)
	clear(s.dirtyVars)
	s.dirtyIdx = false
	return nil
}

// freezeExtentPage builds the chunk of one page of an object extent by
// walking the page's slot directory under one pin, copying no record. A
// slot marked in the window (slots, indexed by slot id) holds the record
// of the object named there, which contributes its working value; only a
// record Load restored is decoded, straight from the pinned page (an
// overflow record once the walk is done), and that is the only place it
// is decoded. Any other live slot holds a record the window did not
// write, which is still the record it held at the last commit, since
// slot ids are stable and every write marks its slot: it is the next
// member of the previous chunk that is not dirty. So only written
// records cost a lookup; Load's bulk commit, where there is no previous
// chunk and every slot is marked, takes the same path and lays the
// decoded tuples out in scan order. It also returns how many objects it
// sealed and how many records it decoded.
func (s *Store) freezeExtentPage(edit *objEdit, b *pageBuf[oid.OID, *value.Tuple], extent string, h *storage.HeapFile, pid storage.PageID, slots []oid.OID, prev *pageChunk[oid.OID, *value.Tuple]) (*pageChunk[oid.OID, *value.Tuple], int, int, error) {
	// The page's live slots are members of prev the window left alone
	// and slots it marked, so this bounds them.
	n := len(slots)
	if prev != nil {
		n += len(prev.keys)
	}
	b.reserve(n)
	var spilled []int                // chunk positions of restored overflow records
	sealed, decoded, next := 0, 0, 0 // next: the previous chunk's next member to consider
	err := h.WalkPage(pid, func(sl storage.SlotID, rec []byte) error {
		rid := storage.RID{Page: pid, Slot: sl}
		if int(sl) < len(slots) && !slots[sl].IsNil() {
			id := slots[sl]
			info, live := s.omap[id]
			if !live || info.extent != extent || info.rid != rid {
				return fmt.Errorf("extent %s: record %s is marked for %s, which is not there", extent, rid, id)
			}
			tv, ok := s.stored(id)
			if !ok && rec == nil {
				spilled = append(spilled, len(b.keys))
			} else if !ok {
				var err error
				if tv, err = decodeTuple(id, rec, s.cat); err != nil {
					return err
				}
				decoded++
			}
			if tv != nil {
				edit.set(id, snapObj{extent: extent, owner: info.owner, tv: tv})
			}
			sealed++
			b.add(id, tv)
			return nil
		}
		for prev != nil && next < len(prev.keys) {
			if _, dirty := s.dirtyObjs[prev.keys[next]]; !dirty {
				break
			}
			next++
		}
		if prev == nil || next == len(prev.keys) {
			return fmt.Errorf("extent %s: record %s was not written and has no previous member", extent, rid)
		}
		b.add(prev.keys[next], prev.vals[next])
		next++
		return nil
	})
	for k := 0; err == nil && k < len(spilled); k++ {
		i := spilled[k]
		id, info := b.keys[i], s.omap[b.keys[i]]
		if b.vals[i], err = s.readRecord(id, info); err == nil {
			edit.set(id, snapObj{extent: extent, owner: info.owner, tv: b.vals[i]})
			decoded++
		}
	}
	c := b.chunk() // empties the buffer, on error too
	if err != nil {
		return nil, 0, 0, err
	}
	return c, sealed, decoded, nil
}

// freezeElemPage builds the chunk of one page of an element extent,
// decoding every element straight from the pinned page (an overflow
// record once the walk is done).
func (s *Store) freezeElemPage(b *pageBuf[storage.RID, value.Value], h *storage.HeapFile, pid storage.PageID) (*pageChunk[storage.RID, value.Value], error) {
	var spilled []int
	err := h.WalkPage(pid, func(sl storage.SlotID, rec []byte) error {
		var v value.Value
		if rec == nil {
			spilled = append(spilled, len(b.keys))
		} else {
			var err error
			if v, err = codec.DecodeOne(rec, s.cat); err != nil {
				return err
			}
		}
		b.add(storage.RID{Page: pid, Slot: sl}, v)
		return nil
	})
	for k := 0; err == nil && k < len(spilled); k++ {
		i := spilled[k]
		var rec []byte
		if rec, err = h.Get(b.keys[i]); err == nil {
			b.vals[i], err = codec.DecodeOne(rec, s.cat)
		}
	}
	c := b.chunk() // empties the buffer, on error too
	if err != nil {
		return nil, err
	}
	return c, nil
}
