package object

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/value"
)

// Snapshot support: Export walks the live state in a stable order;
// Restore* rebuilds objects with their original OIDs (bypassing
// internalization — ownership is restored from the dump, not re-derived).

// ExportObject is one dumped object.
type ExportObject struct {
	Extent string // "" for nursery components
	OID    oid.OID
	Owner  oid.OID
	Data   []byte // codec-encoded tuple
}

// ExportObjects returns every live object, extents first (sorted by
// name, then OID), nursery components last.
func (s *Store) ExportObjects() ([]ExportObject, error) {
	var ids []oid.OID
	for id := range s.omap {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := s.omap[ids[i]], s.omap[ids[j]]
		if a.extent != b.extent {
			return a.extent < b.extent
		}
		return ids[i] < ids[j]
	})
	out := make([]ExportObject, 0, len(ids))
	for _, id := range ids {
		info := s.omap[id]
		rec, err := s.heapFor(info).Get(info.rid)
		if err != nil {
			return nil, err
		}
		out = append(out, ExportObject{Extent: info.extent, OID: id, Owner: info.owner, Data: rec})
	}
	return out, nil
}

// ExportElems returns the raw elements of a ref/value-set extent.
func (s *Store) ExportElems(extent string) ([][]byte, error) {
	var out [][]byte
	err := s.ScanElems(extent, func(_ storage.RID, v value.Value) error {
		enc, err := encode(v)
		if err != nil {
			return err
		}
		out = append(out, enc)
		return nil
	})
	return out, err
}

// ExportVar returns the encoded value of a singleton/array variable.
func (s *Store) ExportVar(name string) ([]byte, error) {
	v, err := s.GetVar(name)
	if err != nil {
		return nil, err
	}
	return encode(v)
}

// RestoreObject re-creates an object with its original identity. The
// extent (or the nursery for components) must already exist; the tuple
// is stored and indexed without internalization. An OID live at the last
// freeze is refused too, deleted since or not: a restored object's
// working value is its record, and the head's tuple must not shadow it.
//
// The decoded tuple is not kept in work. The freeze decodes restored
// records again, page by page, so a loaded extent's tuples are laid out
// in the order its scans visit them; keeping the tuples decoded here, in
// dump order, costs every later scan of the extent memory locality.
//
// extra:requires db.wmu.W
func (s *Store) RestoreObject(o ExportObject) error {
	s.bump()
	if s.Exists(o.OID) || s.head.Exists(o.OID) {
		return fmt.Errorf("restore: OID %s already live", o.OID)
	}
	v, err := codec.DecodeOne(o.Data, s.cat)
	if err != nil {
		return err
	}
	tv, ok := v.(*value.Tuple)
	if !ok {
		return fmt.Errorf("restore: object %s is not a tuple", o.OID)
	}
	var h *storage.HeapFile
	if o.Extent == "" {
		h = s.nursery
	} else {
		h = s.extents[o.Extent]
		if h == nil {
			return fmt.Errorf("restore: no extent %s", o.Extent)
		}
	}
	// Store the canonical encoding, not the bytes given: a dump written
	// by hand may spell a value in a way Encode never would, and the
	// snapshot exports by encoding (Snapshot.ExportObjects).
	enc, err := encode(tv)
	if err != nil {
		return err
	}
	rid, err := h.Insert(enc)
	if err != nil {
		return err
	}
	s.omap[o.OID] = &objInfo{extent: o.Extent, rid: rid, typ: tv.Type, owner: o.Owner}
	s.markObj(o.OID)
	if o.Extent != "" {
		s.rids[o.Extent][rid] = o.OID
		s.indexInsert(o.Extent, o.OID, tv)
	}
	s.gen.Advance(o.OID)
	return nil
}

// RestoreElem re-creates one element of a ref/value-set extent.
//
// extra:requires db.wmu.W
func (s *Store) RestoreElem(extent string, data []byte) error {
	s.bump()
	h, ok := s.elems[extent]
	if !ok {
		return fmt.Errorf("restore: no element extent %s", extent)
	}
	rid, err := h.Insert(data)
	if err != nil {
		return err
	}
	s.markElemPage(extent, rid.Page)
	return nil
}

// RestoreVar overwrites a singleton/array variable with a dumped value
// without ownership processing.
//
// extra:requires db.wmu.W
func (s *Store) RestoreVar(name string, data []byte) error {
	s.bump()
	s.markVar(name)
	rid, ok := s.varRID[name]
	if !ok {
		return fmt.Errorf("restore: no variable %s", name)
	}
	nrid, err := s.vars.Update(rid, data)
	if !nrid.IsNil() {
		s.varRID[name] = nrid
	}
	return err
}
