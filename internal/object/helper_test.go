package object

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/value"
)

// keyEncodeInt encodes an int the way the index layer does, for tests.
func keyEncodeInt(v int64) ([]byte, bool) {
	return codec.EncodeKey(value.NewInt(v))
}

// The rest of the live store's read surface, which only the tests use:
// every statement reads a Snapshot, so these exist to hold the working
// state against what a freeze made of it (render, in snapdiff_test.go).

// ExtentLen returns the number of objects in an object-set extent.
func (s *Store) ExtentLen(extent string) (int, error) {
	x, ok := s.extents[extent]
	if !ok {
		return 0, fmt.Errorf("no object extent %s", extent)
	}
	return x.heap.Len()
}

// ScanExtent iterates an object-set extent's records in heap order,
// decoding each and naming it by the directory entry whose RID is the
// record's: the scan a heap-file store would make, independent of the
// page chunks a freeze builds.
func (s *Store) ScanExtent(extent string, fn func(id oid.OID, tv *value.Tuple) error) error {
	x, ok := s.extents[extent]
	if !ok {
		return fmt.Errorf("no object extent %s", extent)
	}
	byRID := map[storage.RID]oid.OID{}
	s.dir.m.each(func(id oid.OID, so snapObj) {
		if so.ext == x {
			byRID[so.rid()] = id
		}
	})
	return x.heap.Scan(func(rid storage.RID, rec []byte) error {
		id, ok := byRID[rid]
		if !ok {
			return fmt.Errorf("extent %s: record %s has no OID", extent, rid)
		}
		tv, err := decodeTuple(id, rec, s.cat)
		if err != nil {
			return err
		}
		return fn(id, tv)
	})
}

// ScanElems iterates a ref-set or value-set extent's working list.
func (s *Store) ScanElems(extent string, fn func(pos int, v value.Value) error) error {
	l, ok := s.elems[extent]
	if !ok {
		return fmt.Errorf("no element extent %s", extent)
	}
	return l.each(fn)
}

// ExportElems returns the encoded elements of a ref/value-set extent.
func (s *Store) ExportElems(extent string) ([][]byte, error) {
	var out [][]byte
	err := s.ScanElems(extent, func(_ int, v value.Value) error {
		enc, err := encode(v)
		if err != nil {
			return err
		}
		out = append(out, enc)
		return nil
	})
	return out, err
}

// ridOf returns where a live object's record is.
func (s *Store) ridOf(id oid.OID) storage.RID {
	so, _ := s.dir.get(id)
	return so.rid()
}

// ElemLen counts the elements of a ref/value-set extent.
func (s *Store) ElemLen(extent string) (int, error) {
	l, ok := s.elems[extent]
	if !ok {
		return 0, fmt.Errorf("no element extent %s", extent)
	}
	return l.n, nil
}

// IsElemExtent reports whether the name is a ref/value-set extent in
// this store.
func (s *Store) IsElemExtent(name string) bool {
	_, ok := s.elems[name]
	return ok
}

// IndexLookup returns the OIDs whose indexed key is in [lo, hi] (nil
// bounds unbounded) in the working tree.
func IndexLookup(ix *catalog.Index, lo, hi []byte, incLo, incHi bool) []oid.OID {
	var out []oid.OID
	ix.Tree.Range(lo, hi, incLo, incHi, func(_ []byte, v uint64) bool {
		out = append(out, oid.OID(v))
		return true
	})
	return out
}

// IndexLookup is the live-store range probe, reading the working tree.
func (s *Store) IndexLookup(ix *catalog.Index, lo, hi []byte, incLo, incHi bool) []oid.OID {
	return IndexLookup(ix, lo, hi, incLo, incHi)
}

// plantRecord overwrites the heap record of a live object with the
// encoding of tv in place, leaving the store's working value alone: a
// record that diverges from what the store reads in its place, for the
// fsck to find.
func (s *Store) plantRecord(id oid.OID, tv *value.Tuple) error {
	so, _ := s.dir.get(id)
	enc, err := encode(tv)
	if err != nil {
		return err
	}
	nrid, err := so.ext.heap.Update(so.rid(), enc)
	if err == nil && nrid != so.rid() {
		err = fmt.Errorf("planted record of %s moved from %s to %s", id, so.rid(), nrid)
	}
	return err
}

// plantOrphan writes the encoding of tv as a record of the extent's heap
// that no directory entry names, for the fsck to find.
func (s *Store) plantOrphan(extent string, tv *value.Tuple) error {
	enc, err := encode(tv)
	if err != nil {
		return err
	}
	_, err = s.extents[extent].heap.Insert(enc)
	return err
}
