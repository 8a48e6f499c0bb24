package object

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/oid"
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
	h, ok := s.extents[extent]
	if !ok {
		return 0, fmt.Errorf("no object extent %s", extent)
	}
	return h.Len()
}

// ElemLen counts the elements of a ref/value-set extent.
func (s *Store) ElemLen(extent string) (int, error) {
	h, ok := s.elems[extent]
	if !ok {
		return 0, fmt.Errorf("no element extent %s", extent)
	}
	return h.Len()
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
	info := s.omap[id]
	enc, err := encode(tv)
	if err != nil {
		return err
	}
	nrid, err := s.heapFor(info).Update(info.rid, enc)
	if err == nil && nrid != info.rid {
		err = fmt.Errorf("planted record of %s moved from %s to %s", id, info.rid, nrid)
	}
	return err
}
