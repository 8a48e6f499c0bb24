package object

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/oid"
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
	out := make([]ExportObject, 0, s.dir.m.n)
	var err error
	s.dir.m.each(func(id oid.OID, so snapObj) {
		rec, gerr := s.heapFor(so).Get(so.rid())
		if gerr != nil && err == nil {
			err = gerr
		}
		out = append(out, ExportObject{Extent: so.extentName(), OID: id, Owner: so.owner, Data: rec})
	})
	if err != nil {
		return nil, err
	}
	// each visits in OID order; a stable sort on the extent keeps it
	// within each extent.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Extent < out[j].Extent })
	return out, nil
}

// RestoreObject re-creates an object with its original identity. The
// extent (or the nursery for components) must already exist; the tuple
// is stored and indexed without internalization. An OID live at the last
// freeze is refused too, deleted since or not: an OID names one object,
// and the head's readers may still hold the one it named.
//
// The decoded tuple is not kept: the directory entry is pending, carrying
// the record's RID, and the freeze decodes restored records again, page
// by page, so a loaded extent's tuples are laid out in the
// order its scans visit them; keeping the tuples decoded here, in dump
// order, costs every later scan of the extent memory locality.
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
	so := snapObj{tv: pendingTuple, owner: o.Owner}
	if o.Extent != "" {
		if so.ext = s.extents[o.Extent]; so.ext == nil {
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
	rid, err := s.heapFor(so).Insert(enc)
	if err != nil {
		return err
	}
	so.at = packRID(rid)
	s.put(o.OID, so)
	if so.ext != nil {
		s.indexInsert(o.Extent, o.OID, tv)
	} else {
		s.restored = append(s.restored, o.OID)
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
