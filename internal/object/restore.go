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

// restoredObj is an object RestoreObject wrote since the last freeze:
// its canonical record and, for an extent member, its position in the
// extent's member list.
type restoredObj struct {
	id   oid.OID
	data []byte
	pos  int
}

// ExportObjects returns every live object, encoded, in the order
// exportObjects gives.
func (s *Store) ExportObjects() ([]ExportObject, error) {
	return exportObjects(&s.dir.m, s.restored)
}

// exportObjects encodes every object of m: sorted by extent name, so
// own-ref components (extent "") come first, then by OID. A pending
// entry's record is where restored keeps it; every other entry's tuple
// is encoded, which gives the record it was written as: RestoreObject
// keeps the canonical encoding, and Encode(DecodeOne(b)) == b for such
// b. So a snapshot's export is byte for byte the working store's at
// the same version.
func exportObjects(m *objMap, restored []restoredObj) ([]ExportObject, error) {
	out := make([]ExportObject, 0, m.n)
	var err error
	m.each(func(id oid.OID, so snapObj) {
		var enc []byte
		var eerr error
		if so.pending() {
			enc = restored[so.at].data
		} else {
			enc, eerr = encode(so.tv)
		}
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

// RestoreObject re-creates an object with its original identity. The
// extent, if any, must already exist; an extent member goes to the tail
// of its member list. The tuple is stored and indexed without
// internalization. An OID live at the last freeze is refused too,
// deleted since or not: an OID names one object, and the head's readers
// may still hold the one it named.
//
// The decoded tuple is not kept: the directory entry (and an extent
// member's place in its list) is pending, and the freeze decodes the
// restored records again, in restore order, so a loaded extent's tuples
// are laid out in the order its scans visit them; keeping the tuples
// decoded here, among the allocations of the restore, costs every later
// scan of the extent memory locality.
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
	so := snapObj{tv: pendingTuple, owner: o.Owner, at: uint64(len(s.restored))}
	if o.Extent != "" {
		if so.ext = s.extents[o.Extent]; so.ext == nil {
			return fmt.Errorf("restore: no extent %s", o.Extent)
		}
	}
	// Keep the canonical encoding, not the bytes given: a dump written
	// by hand may spell a value in a way Encode never would, and the
	// snapshot exports by encoding (exportObjects).
	enc, err := encode(tv)
	if err != nil {
		return err
	}
	r := restoredObj{id: o.OID, data: enc}
	if so.ext != nil {
		r.pos = s.members(so.ext).append(member{o.OID, pendingTuple})
		s.indexInsert(o.Extent, o.OID, tv)
	}
	s.restored = append(s.restored, r)
	s.dir.set(o.OID, so)
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
