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
	Extent string // "" for own-ref components
	OID    oid.OID
	Owner  oid.OID
	Data   []byte // codec-encoded tuple
}

// ExportObjects returns every live object, extents first (sorted by
// name, then OID), own-ref components last: an extent member's record as
// it is on its heap page, a component's working value encoded.
func (s *Store) ExportObjects() ([]ExportObject, error) {
	out := make([]ExportObject, 0, s.dir.m.n)
	var err error
	s.dir.m.each(func(id oid.OID, so snapObj) {
		var rec []byte
		var gerr error
		switch {
		case so.ext != nil:
			rec, gerr = so.ext.heap.Get(so.rid())
		case so.pending():
			rec = s.restored[so.at].Data
		default:
			rec, gerr = encode(so.tv)
		}
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
// extent, if any, must already exist; the tuple is stored and indexed
// without internalization. An OID live at the last freeze is refused
// too, deleted since or not: an OID names one object, and the head's
// readers may still hold the one it named.
//
// The decoded tuple is not kept: the directory entry is pending, and the
// freeze decodes restored records again — an extent member's page by
// page, a component's from Store.restored in restore order — so a
// loaded extent's tuples are laid out in the order its scans visit them;
// keeping the tuples decoded here, in dump order, costs every later scan
// of the extent memory locality.
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
	if so.ext == nil {
		so.at = uint64(len(s.restored))
		s.restored = append(s.restored, ExportObject{OID: o.OID, Data: enc})
	} else {
		rid, err := so.ext.heap.Insert(enc)
		if err != nil {
			return err
		}
		so.at = packRID(rid)
		s.indexInsert(o.Extent, o.OID, tv)
	}
	s.put(o.OID, so)
	s.gen.Advance(o.OID)
	return nil
}

// RestoreElem re-creates one element of a ref/value-set extent from its
// dumped encoding.
//
// extra:requires db.wmu.W
func (s *Store) RestoreElem(extent string, data []byte) error {
	s.bump()
	l, err := s.writeElem(extent)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	v, err := codec.DecodeOne(data, s.cat)
	if err != nil {
		return err
	}
	l.append(v)
	return nil
}

// RestoreVar overwrites a singleton/array variable with a dumped value
// without ownership processing.
//
// extra:requires db.wmu.W
func (s *Store) RestoreVar(name string, data []byte) error {
	s.bump()
	if _, ok := s.varVals[name]; !ok {
		return fmt.Errorf("restore: no variable %s", name)
	}
	v, err := codec.DecodeOne(data, s.cat)
	if err != nil {
		return err
	}
	s.writeVals()
	s.varVals[name] = v
	return nil
}
