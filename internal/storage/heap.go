package storage

import (
	"encoding/binary"
	"fmt"
)

// Record tags: an inline record carries its payload on the data page; an
// overflow record stores a pointer to a chain of dedicated overflow pages
// (large EXTRA objects — e.g. an employee with many embedded own kids —
// routinely exceed one page).
const (
	tagInline   = 0
	tagOverflow = 1
)

const (
	ovflHdr = 10 // next PageID (8) + fragment length (2)
)

// HeapFile is an unordered collection of records stored on slotted pages,
// the base access method for every EXTRA extent. A HeapFile tracks its
// pages in memory; the set of page ids is part of the catalog dump.
type HeapFile struct {
	pool  *BufferPool
	pages []PageID       // data pages in scan order; append-only until DropAll
	pos   map[PageID]int // index of each data page in pages
	avail map[PageID]int // cached free-space estimate per data page
	live  int            // live records; -1 until counted, after a reopen
}

// NewHeapFile creates an empty heap file over the pool.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, pos: make(map[PageID]int), avail: make(map[PageID]int)}
}

// ReopenHeapFile reattaches a heap file to a known list of data pages
// (after a dump/load cycle); free-space estimates are rebuilt lazily.
func ReopenHeapFile(pool *BufferPool, pages []PageID) *HeapFile {
	h := NewHeapFile(pool)
	h.pages = pages
	h.live = -1
	for i, id := range pages {
		h.pos[id] = i
		h.avail[id] = -1 // unknown; probe on demand
	}
	return h
}

// Pages returns the data page ids in scan order, for persistence.
func (h *HeapFile) Pages() []PageID { return h.pages }

// PageIndex returns the position of a data page in Pages. A page that
// was never part of the file, or left it with DropAll, reports false.
func (h *HeapFile) PageIndex(pid PageID) (int, bool) {
	i, ok := h.pos[pid]
	return i, ok
}

// NumPages returns the number of data pages.
func (h *HeapFile) NumPages() int { return len(h.pages) }

// Insert stores a record and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	stored, err := h.externalize(rec)
	if err != nil {
		return RID{}, err
	}
	pid, err := h.pageWithRoom(len(stored))
	if err != nil {
		return RID{}, err
	}
	buf, err := h.pool.Pin(pid)
	if err != nil {
		return RID{}, err
	}
	defer h.pool.Unpin(pid)
	p := Page{Buf: buf}
	slot, err := p.Insert(stored)
	if err != nil {
		return RID{}, err
	}
	h.pool.MarkDirty(pid)
	h.avail[pid] = p.FreeSpace()
	if h.live >= 0 {
		h.live++
	}
	return RID{Page: pid, Slot: slot}, nil
}

// externalize converts a logical record into its on-page representation,
// spilling to an overflow chain when it cannot fit inline.
func (h *HeapFile) externalize(rec []byte) ([]byte, error) {
	if len(rec)+1 <= MaxRecord(PageSize) {
		out := make([]byte, len(rec)+1)
		out[0] = tagInline
		copy(out[1:], rec)
		return out, nil
	}
	first, err := h.writeChain(rec)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 1+8+4)
	out[0] = tagOverflow
	binary.LittleEndian.PutUint64(out[1:9], uint64(first))
	binary.LittleEndian.PutUint32(out[9:13], uint32(len(rec)))
	return out, nil
}

// writeChain stores rec across a chain of overflow pages, returning the
// first page id.
func (h *HeapFile) writeChain(rec []byte) (PageID, error) {
	const frag = PageSize - ovflHdr
	var first, prev PageID
	for off := 0; off < len(rec); off += frag {
		end := off + frag
		if end > len(rec) {
			end = len(rec)
		}
		pid, buf, err := h.pool.PinNew()
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(buf[0:8], 0)
		binary.LittleEndian.PutUint16(buf[8:10], uint16(end-off))
		copy(buf[ovflHdr:], rec[off:end])
		h.pool.MarkDirty(pid)
		h.pool.Unpin(pid)
		if first == 0 {
			first = pid
		} else {
			pbuf, err := h.pool.Pin(prev)
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint64(pbuf[0:8], uint64(pid))
			h.pool.MarkDirty(prev)
			h.pool.Unpin(prev)
		}
		prev = pid
	}
	return first, nil
}

// readChain reassembles an overflow record.
func (h *HeapFile) readChain(first PageID, total int) ([]byte, error) {
	out := make([]byte, 0, total)
	pid := first
	for pid != 0 {
		buf, err := h.pool.Pin(pid)
		if err != nil {
			return nil, err
		}
		next := PageID(binary.LittleEndian.Uint64(buf[0:8]))
		n := int(binary.LittleEndian.Uint16(buf[8:10]))
		out = append(out, buf[ovflHdr:ovflHdr+n]...)
		h.pool.Unpin(pid)
		pid = next
	}
	if len(out) != total {
		return nil, fmt.Errorf("overflow chain length %d, want %d", len(out), total)
	}
	return out, nil
}

// freeChain releases the overflow pages of a record.
func (h *HeapFile) freeChain(first PageID) error {
	pid := first
	for pid != 0 {
		buf, err := h.pool.Pin(pid)
		if err != nil {
			return err
		}
		next := PageID(binary.LittleEndian.Uint64(buf[0:8]))
		h.pool.Unpin(pid)
		h.pool.Drop(pid)
		if err := h.pool.Store().Free(pid); err != nil {
			return err
		}
		pid = next
	}
	return nil
}

// decode interprets a stored record, following the overflow chain when
// needed. The returned slice is always a copy safe to hold.
func (h *HeapFile) decode(stored []byte) ([]byte, error) {
	if len(stored) == 0 {
		return nil, fmt.Errorf("empty stored record")
	}
	switch stored[0] {
	case tagInline:
		out := make([]byte, len(stored)-1)
		copy(out, stored[1:])
		return out, nil
	case tagOverflow:
		if len(stored) < 13 {
			return nil, fmt.Errorf("short overflow header")
		}
		first := PageID(binary.LittleEndian.Uint64(stored[1:9]))
		total := int(binary.LittleEndian.Uint32(stored[9:13]))
		return h.readChain(first, total)
	default:
		return nil, fmt.Errorf("bad record tag %d", stored[0])
	}
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	buf, err := h.pool.Pin(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page)
	p := Page{Buf: buf}
	stored, err := p.Get(rid.Slot)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rid, err)
	}
	return h.decode(stored)
}

// Delete removes the record at rid, releasing any overflow chain.
func (h *HeapFile) Delete(rid RID) error {
	chain, err := h.unlink(rid)
	if err != nil || chain == 0 {
		return err
	}
	return h.freeChain(chain)
}

// unlink removes the record at rid from its data page and returns the
// first page of its overflow chain (0 for an inline record), which the
// caller releases. An error means the page is unchanged.
func (h *HeapFile) unlink(rid RID) (PageID, error) {
	buf, err := h.pool.Pin(rid.Page)
	if err != nil {
		return 0, err
	}
	p := Page{Buf: buf}
	stored, err := p.Get(rid.Slot)
	if err != nil {
		h.pool.Unpin(rid.Page)
		return 0, fmt.Errorf("%s: %w", rid, err)
	}
	var chain PageID
	if stored[0] == tagOverflow {
		chain = PageID(binary.LittleEndian.Uint64(stored[1:9]))
	}
	if err := p.Delete(rid.Slot); err != nil {
		h.pool.Unpin(rid.Page)
		return 0, err
	}
	h.pool.MarkDirty(rid.Page)
	h.avail[rid.Page] = p.FreeSpace()
	h.pool.Unpin(rid.Page)
	if h.live > 0 {
		h.live--
	}
	return chain, nil
}

// Update replaces the record at rid, possibly moving it; the (possibly
// new) RID is returned and the caller must update any maps keyed by RID.
// An error with a nil RID means the record is unchanged. A record that
// moves is inserted at its new place before it is deleted from the old
// one, so a failed insert (no frame, a failed write-back) leaves the old
// record in place; if the old page cannot be had again for the delete,
// the new copy is deleted and the update fails. No pin is held across
// the insert, which in a one-frame pool needs the very frame the old
// page is in. An error with a non-nil RID means the record
// was written there and only releasing its old overflow chain failed.
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	buf, err := h.pool.Pin(rid.Page)
	if err != nil {
		return RID{}, err
	}
	p := Page{Buf: buf}
	old, err := p.Get(rid.Slot)
	if err != nil {
		h.pool.Unpin(rid.Page)
		return RID{}, fmt.Errorf("%s: %w", rid, err)
	}
	var oldChain PageID
	if old[0] == tagOverflow {
		oldChain = PageID(binary.LittleEndian.Uint64(old[1:9]))
	}
	// Inline fast path: try in-place update.
	if len(rec)+1 <= MaxRecord(PageSize) {
		inl := make([]byte, len(rec)+1)
		inl[0] = tagInline
		copy(inl[1:], rec)
		ok, err := p.Update(rid.Slot, inl)
		if err != nil {
			h.pool.Unpin(rid.Page)
			return RID{}, err
		}
		if ok {
			h.pool.MarkDirty(rid.Page)
			h.avail[rid.Page] = p.FreeSpace()
			h.pool.Unpin(rid.Page)
			if oldChain != 0 {
				return rid, h.freeChain(oldChain)
			}
			return rid, nil
		}
	}
	h.pool.Unpin(rid.Page)
	// Slow path: insert, then delete the old record.
	nrid, err := h.Insert(rec)
	if err != nil {
		return RID{}, err
	}
	if _, err := h.unlink(rid); err != nil {
		if derr := h.Delete(nrid); derr != nil {
			return RID{}, fmt.Errorf("%w (and the new copy at %s stays: %v)", err, nrid, derr)
		}
		return RID{}, err
	}
	if oldChain != 0 {
		return nrid, h.freeChain(oldChain)
	}
	return nrid, nil
}

// WalkPage walks the slot directory of one data page under one pin and
// calls fn for each live slot in slot order with the slot's inline
// record. rec is the page frame itself: fn must not keep it, and must
// not touch the pool. An overflow record comes as nil; read it with Get
// once WalkPage has returned.
func (h *HeapFile) WalkPage(pid PageID, fn func(s SlotID, rec []byte) error) error {
	buf, err := h.pool.Pin(pid)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(pid)
	return Page{Buf: buf}.Slots(func(s SlotID, stored []byte) error {
		if len(stored) == 0 {
			return fmt.Errorf("page %d: empty stored record", pid)
		}
		if stored[0] != tagInline {
			return fn(s, nil)
		}
		return fn(s, stored[1:])
	})
}

// Scan calls fn for every record in the file, in page then slot order,
// with a copy of the record: fn may keep it, and may use the pool. The
// inline records of a page are copied into one buffer during its walk.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) error) error {
	var slots []SlotID
	var ends []int // where each record ends in data; -1 for an overflow record
	for _, pid := range h.pages {
		slots, ends = slots[:0], ends[:0]
		data := make([]byte, 0, PageSize)
		if err := h.WalkPage(pid, func(s SlotID, rec []byte) error {
			end := -1
			if rec != nil {
				data = append(data, rec...)
				end = len(data)
			}
			slots, ends = append(slots, s), append(ends, end)
			return nil
		}); err != nil {
			return err
		}
		start := 0
		for i, s := range slots {
			rid := RID{Page: pid, Slot: s}
			var rec []byte
			var err error
			if end := ends[i]; end >= 0 {
				rec, start = data[start:end:end], end
			} else if rec, err = h.Get(rid); err != nil {
				return err
			}
			if err := fn(rid, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// pageWithRoom finds (or allocates) a data page with room for a stored
// record of n bytes.
func (h *HeapFile) pageWithRoom(n int) (PageID, error) {
	// Check most recent pages first; cheap and effective for append-heavy
	// loads.
	for i := len(h.pages) - 1; i >= 0 && i >= len(h.pages)-4; i-- {
		pid := h.pages[i]
		free := h.avail[pid]
		if free < 0 {
			free = h.probe(pid)
		}
		if free >= n+slotSize {
			return pid, nil
		}
	}
	// Fall back to the first page with room in allocation order. (Not a
	// map range over h.avail: that would make record placement — and so
	// extent scan order and dump output — vary from run to run.)
	for _, pid := range h.pages {
		if free, ok := h.avail[pid]; ok && free >= n+slotSize {
			return pid, nil
		}
	}
	pid, buf, err := h.pool.PinNew()
	if err != nil {
		return 0, err
	}
	InitPage(buf)
	h.pool.MarkDirty(pid)
	h.pool.Unpin(pid)
	h.pos[pid] = len(h.pages)
	h.pages = append(h.pages, pid)
	h.avail[pid] = MaxRecord(PageSize) + slotSize
	return pid, nil
}

// probe reads a page to learn its actual free space (used after reopen).
func (h *HeapFile) probe(pid PageID) int {
	buf, err := h.pool.Pin(pid)
	if err != nil {
		return 0
	}
	free := Page{Buf: buf}.FreeSpace()
	h.pool.Unpin(pid)
	h.avail[pid] = free
	return free
}

// Len returns the number of live records. Insert and Delete keep the
// count; only a reopened file has to scan its page headers for it, once.
func (h *HeapFile) Len() (int, error) {
	if h.live >= 0 {
		return h.live, nil
	}
	n := 0
	for _, pid := range h.pages {
		buf, err := h.pool.Pin(pid)
		if err != nil {
			return 0, err
		}
		n += Page{Buf: buf}.LiveCount()
		h.pool.Unpin(pid)
	}
	h.live = n
	return n, nil
}

// DropAll deletes every record and releases all pages.
func (h *HeapFile) DropAll() error {
	if err := h.Scan(func(rid RID, rec []byte) error { return nil }); err != nil {
		return err
	}
	for _, pid := range h.pages {
		buf, err := h.pool.Pin(pid)
		if err != nil {
			return err
		}
		p := Page{Buf: buf}
		var chains []PageID
		p.Slots(func(s SlotID, rec []byte) error {
			if rec[0] == tagOverflow {
				chains = append(chains, PageID(binary.LittleEndian.Uint64(rec[1:9])))
			}
			return nil
		})
		h.pool.Unpin(pid)
		for _, c := range chains {
			if err := h.freeChain(c); err != nil {
				return err
			}
		}
		h.pool.Drop(pid)
		if err := h.pool.Store().Free(pid); err != nil {
			return err
		}
	}
	h.pages = nil
	h.live = 0
	h.pos = make(map[PageID]int)
	h.avail = make(map[PageID]int)
	return nil
}
