package object

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/value"
)

func encode(v value.Value) ([]byte, error) { return codec.Encode(nil, v) }

// readVar decodes the stored value of a singleton/array variable.
func (s *Store) readVar(v *catalog.Variable, rid storage.RID) (value.Value, error) {
	rec, err := s.vars.Get(rid)
	if err != nil {
		return nil, err
	}
	return codec.DecodeOne(rec, s.cat)
}

// GetVar returns the current value of a singleton or array variable.
func (s *Store) GetVar(name string) (value.Value, error) {
	v, ok := s.cat.Var(name)
	if !ok {
		return nil, fmt.Errorf("no database variable %s", name)
	}
	rid, ok := s.varRID[name]
	if !ok {
		return nil, fmt.Errorf("variable %s has no storage (is it a set extent?)", name)
	}
	return s.readVar(v, rid)
}

// SetVar replaces the value of a singleton or array variable, destroying
// own-ref components the old value owned and internalizing the new one.
//
// extra:requires db.wmu.W
func (s *Store) SetVar(name string, nv value.Value) error {
	s.bump()
	s.markVar(name)
	v, ok := s.cat.Var(name)
	if !ok {
		return fmt.Errorf("no database variable %s", name)
	}
	rid, ok := s.varRID[name]
	if !ok {
		return fmt.Errorf("variable %s has no storage (is it a set extent?)", name)
	}
	old, err := s.readVar(v, rid)
	if err != nil {
		return err
	}
	oldOwned := map[oid.OID]bool{}
	collectOwned(v.Comp, old, oldOwned)
	iv, err := s.internalizeKeeping(v.Comp, value.Copy(nv), s.varOID[name], oldOwned)
	if err != nil {
		return err
	}
	newOwned := map[oid.OID]bool{}
	collectOwned(v.Comp, iv, newOwned)
	enc, err := encode(iv)
	if err != nil {
		return err
	}
	nrid, werr := s.vars.Update(rid, enc)
	if nrid.IsNil() {
		return werr // the record is unchanged
	}
	s.varRID[name] = nrid
	for id := range oldOwned {
		if !newOwned[id] && s.Exists(id) {
			if err := s.Delete(id); err != nil {
				return err
			}
		}
	}
	return werr
}

// ---------------------------------------------------------------------------
// Element extents: sets of references and sets of plain values.

// InsertElem appends a value to a ref-set or value-set extent.
//
// extra:requires db.wmu.W
func (s *Store) InsertElem(extent string, v value.Value) error {
	s.bump()
	h, ok := s.elems[extent]
	if !ok {
		return fmt.Errorf("no element extent %s", extent)
	}
	enc, err := encode(v)
	if err != nil {
		return err
	}
	rid, err := h.Insert(enc)
	if err != nil {
		return err
	}
	s.markElemPage(extent, rid.Page)
	return nil
}

// ScanElems iterates a ref-set or value-set extent.
func (s *Store) ScanElems(extent string, fn func(rid storage.RID, v value.Value) error) error {
	h, ok := s.elems[extent]
	if !ok {
		return fmt.Errorf("no element extent %s", extent)
	}
	return h.Scan(func(rid storage.RID, rec []byte) error {
		v, err := codec.DecodeOne(rec, s.cat)
		if err != nil {
			return err
		}
		return fn(rid, v)
	})
}

// DeleteElem removes one element record from a ref/value-set extent.
//
// extra:requires db.wmu.W
func (s *Store) DeleteElem(extent string, rid storage.RID) error {
	s.bump()
	h, ok := s.elems[extent]
	if !ok {
		return fmt.Errorf("no element extent %s", extent)
	}
	s.markElemPage(extent, rid.Page)
	return h.Delete(rid)
}

// IsObjectExtent reports whether the name is an object-set extent.
func (s *Store) IsObjectExtent(name string) bool {
	_, ok := s.extents[name]
	return ok
}
