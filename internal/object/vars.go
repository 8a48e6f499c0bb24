package object

import (
	"fmt"
	"maps"

	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/value"
)

func encode(v value.Value) ([]byte, error) { return codec.Encode(nil, v) }

// GetVar returns a copy of the current value of a singleton or array
// variable, which the caller may mutate.
func (s *Store) GetVar(name string) (value.Value, error) {
	if v, ok := s.varVals[name]; ok {
		return value.Copy(v), nil
	}
	if _, ok := s.cat.Var(name); !ok {
		return nil, fmt.Errorf("no database variable %s", name)
	}
	return nil, fmt.Errorf("variable %s has no storage (is it a set extent?)", name)
}

// writeVals copies the working variable and element maps if the head
// still shares them, so the window may write to them.
func (s *Store) writeVals() {
	if !s.valsOwned {
		s.varVals, s.elems, s.valsOwned = maps.Clone(s.varVals), maps.Clone(s.elems), true
	}
}

// SetVar replaces the value of a singleton or array variable, destroying
// own-ref components the old value owned and internalizing the new one.
//
// extra:requires db.wmu.W
func (s *Store) SetVar(name string, nv value.Value) error {
	s.bump()
	v, ok := s.cat.Var(name)
	if !ok {
		return fmt.Errorf("no database variable %s", name)
	}
	old, ok := s.varVals[name]
	if !ok {
		return fmt.Errorf("variable %s has no storage (is it a set extent?)", name)
	}
	oldOwned := map[oid.OID]bool{}
	collectOwned(v.Comp, old, oldOwned)
	iv, err := s.internalizeKeeping(v.Comp, value.Copy(nv), s.varOID[name], oldOwned)
	if err != nil {
		return err
	}
	newOwned := map[oid.OID]bool{}
	collectOwned(v.Comp, iv, newOwned)
	if _, err := s.encodeRecord(iv); err != nil {
		return err
	}
	s.writeVals()
	s.varVals[name] = iv
	for id := range oldOwned {
		if !newOwned[id] && s.Exists(id) {
			if err := s.Delete(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Element extents: sets of references and sets of plain values.

// writeElem returns the working list of an element extent, which the
// window may write.
func (s *Store) writeElem(extent string) (*elemList, error) {
	l, ok := s.elems[extent]
	if !ok {
		return nil, fmt.Errorf("no element extent %s", extent)
	}
	if l.mine == nil {
		l = l.edit()
		s.writeVals()
		s.elems[extent] = l
	}
	return l, nil
}

// InsertElem appends a value to a ref-set or value-set extent, stored
// as the extent's element component stores it (a char[n] element is
// padded or cut to n, a string is copied out of its statement's text).
//
// extra:requires db.wmu.W
func (s *Store) InsertElem(extent string, v value.Value) error {
	s.bump()
	cv, ok := s.cat.Var(extent)
	if !ok {
		return fmt.Errorf("no element extent %s", extent)
	}
	elem, _ := cv.ElemType()
	iv, err := s.internalize(elem, value.Copy(v), oid.Nil)
	if err != nil {
		return err
	}
	if _, err := s.encodeRecord(iv); err != nil {
		return err
	}
	l, err := s.writeElem(extent)
	if err != nil {
		return err
	}
	l.append(iv)
	return nil
}

// DeleteElem removes the element at pos, a position a scan of the last
// freeze handed out, from a ref/value-set extent.
//
// extra:requires db.wmu.W
func (s *Store) DeleteElem(extent string, pos int) error {
	s.bump()
	l, err := s.writeElem(extent)
	if err != nil {
		return err
	}
	return l.delete(pos)
}

// IsObjectExtent reports whether the name is an object-set extent.
func (s *Store) IsObjectExtent(name string) bool {
	_, ok := s.extents[name]
	return ok
}
