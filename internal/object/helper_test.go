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
	x, ok := s.extents[extent]
	if !ok {
		return 0, fmt.Errorf("no object extent %s", extent)
	}
	return x.members.n, nil
}

// ScanExtent iterates an object-set extent's working member list, a
// member Load restored with its record decoded.
func (s *Store) ScanExtent(extent string, fn func(id oid.OID, tv *value.Tuple) error) error {
	x, ok := s.extents[extent]
	if !ok {
		return fmt.Errorf("no object extent %s", extent)
	}
	return x.members.each(func(_ int, m member) error {
		tv := m.tv
		if tv == pendingTuple {
			so, _ := s.dir.get(m.id)
			var err error
			if tv, err = s.working(m.id, so); err != nil {
				return err
			}
		}
		return fn(m.id, tv)
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

// ridOf returns a live extent member's position in its member list.
func (s *Store) ridOf(id oid.OID) int {
	so, _ := s.dir.get(id)
	return s.pos(so)
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

// plantMember puts tv in the member-list place of a live extent member,
// leaving its directory entry alone: a member that disagrees with the
// working value the store reads, for the fsck to find.
func (s *Store) plantMember(id oid.OID, tv *value.Tuple) error {
	so, _ := s.dir.get(id)
	return s.members(so.ext).set(s.pos(so), member{id, tv})
}

// plantOrphan appends tv to the extent's member list under a fresh OID
// that no directory entry has, for the fsck to find.
func (s *Store) plantOrphan(extent string, tv *value.Tuple) error {
	s.members(s.extents[extent]).append(member{s.gen.Next(), tv})
	return nil
}
