package object

import (
	"fmt"
	"strings"

	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// internalize prepares a value for storage under the given component
// description: own-ref tuple values become owned component objects and
// are replaced by references; pre-existing references in own-ref position are
// claimed for the owner; own data is recursed into; plain refs and
// scalars pass through after light validation.
func (s *Store) internalize(comp types.Component, v value.Value, owner oid.OID) (value.Value, error) {
	return s.internalizeKeeping(comp, v, owner, nil)
}

// internalizeKeeping is internalize for updates: refs in own-ref position
// that the owner already owns (listed in kept) are accepted as-is rather
// than re-claimed.
func (s *Store) internalizeKeeping(comp types.Component, v value.Value, owner oid.OID, kept map[oid.OID]bool) (value.Value, error) {
	if value.IsNull(v) {
		return value.Null{}, nil
	}
	switch comp.Mode {
	case types.OwnRef:
		switch x := v.(type) {
		case *value.Tuple:
			id, err := s.createOwned(x, owner, kept)
			if err != nil {
				return nil, err
			}
			return value.Ref{OID: id, Type: x.Type.Name}, nil
		case value.Ref:
			if x.OID.IsNil() {
				return value.Null{}, nil
			}
			if kept != nil && kept[x.OID] {
				return x, nil
			}
			if err := s.claim(x.OID, owner); err != nil {
				return nil, err
			}
			return x, nil
		}
		return nil, fmt.Errorf("own ref component needs an object or reference, got %s", v)
	case types.RefTo:
		switch x := v.(type) {
		case value.Ref:
			return x, nil
		case *value.Tuple:
			return nil, fmt.Errorf("ref component needs a reference; construct the object in its own extent first")
		}
		return nil, fmt.Errorf("ref component needs a reference, got %s", v)
	default: // Own
		switch x := v.(type) {
		case *value.Tuple:
			tt, ok := comp.Type.(*types.TupleType)
			if !ok {
				return nil, fmt.Errorf("tuple value in non-tuple slot %s", comp.Type)
			}
			if !x.Type.IsSubtypeOf(tt) {
				return nil, fmt.Errorf("value of type %s not assignable to %s", x.Type.Name, tt.Name)
			}
			for i, a := range x.Type.Attrs() {
				nv, err := s.internalizeKeeping(a.Comp, x.Fields[i], owner, kept)
				if err != nil {
					return nil, fmt.Errorf("attribute %s: %w", a.Name, err)
				}
				x.Fields[i] = nv
			}
			return x, nil
		case *value.Set:
			elem, ok := types.ElemOf(comp.Type)
			if !ok {
				return nil, fmt.Errorf("set value in non-set slot %s", comp.Type)
			}
			for i, e := range x.Elems {
				nv, err := s.internalizeKeeping(elem, e, owner, kept)
				if err != nil {
					return nil, err
				}
				x.Elems[i] = nv
			}
			return x, nil
		case *value.Array:
			elem, ok := types.ElemOf(comp.Type)
			if !ok {
				return nil, fmt.Errorf("array value in non-array slot %s", comp.Type)
			}
			if at, isArr := comp.Type.(*types.Array); isArr && at.Fixed && len(x.Elems) != at.Len {
				return nil, fmt.Errorf("fixed array of length %d given %d elements", at.Len, len(x.Elems))
			}
			for i, e := range x.Elems {
				nv, err := s.internalizeKeeping(elem, e, owner, kept)
				if err != nil {
					return nil, err
				}
				x.Elems[i] = nv
			}
			return x, nil
		case value.Int:
			if !x.InRange() {
				return nil, fmt.Errorf("value %d out of range for %s", x.V, x.K)
			}
			return x, nil
		case value.Str:
			if bt, ok := comp.Type.(*types.Base); ok && bt.K == types.KChar {
				// char[n] pads or truncates to the declared width, the
				// classic fixed-length string behaviour.
				r := []rune(x.V)
				if len(r) > bt.Width {
					r = r[:bt.Width]
				}
				for len(r) < bt.Width {
					r = append(r, ' ')
				}
				return value.Str{K: types.KChar, V: string(r)}, nil
			}
			// The stored tuple is the snapshot's from the next freeze on,
			// for as long as the object lives. A string literal is a slice
			// of its statement's text, which it must not keep alive.
			return value.Str{K: x.K, V: strings.Clone(x.V)}, nil
		default:
			return v, nil
		}
	}
}

// createOwned stores a tuple as a new own-ref component object, owned by
// owner: its directory entry alone.
func (s *Store) createOwned(tv *value.Tuple, owner oid.OID, kept map[oid.OID]bool) (oid.OID, error) {
	id := s.gen.Next()
	comp := types.Component{Mode: types.Own, Type: tv.Type}
	iv, err := s.internalizeKeeping(comp, tv, id, kept)
	if err != nil {
		return oid.Nil, err
	}
	if _, err := s.encodeRecord(iv); err != nil {
		return oid.Nil, err
	}
	s.dir.set(id, snapObj{tv: iv.(*value.Tuple), owner: owner})
	return id, nil
}

// claim asserts exclusive ownership of an existing object for owner.
// Objects living in extents are owned by their extent and cannot be
// claimed; components can be claimed only when unowned (their previous
// owner released them).
func (s *Store) claim(id oid.OID, owner oid.OID) error {
	so, ok := s.dir.get(id)
	if !ok {
		return fmt.Errorf("cannot own missing object %s", id)
	}
	if so.ext != nil {
		return fmt.Errorf("object %s belongs to extent %s and cannot become an own ref component", id, so.ext.name)
	}
	if !so.owner.IsNil() && so.owner != owner {
		return fmt.Errorf("object %s is already owned (composite exclusivity)", id)
	}
	so.owner = owner
	s.dir.set(id, so) // ownership is snapshot state (Owner, export)
	return nil
}

// collectOwned gathers the OIDs of own-ref components reachable through
// own structure (not through plain refs).
func collectOwned(comp types.Component, v value.Value, out map[oid.OID]bool) {
	if value.IsNull(v) {
		return
	}
	switch comp.Mode {
	case types.OwnRef:
		if r, ok := v.(value.Ref); ok && !r.OID.IsNil() {
			out[r.OID] = true
		}
		return
	case types.RefTo:
		return
	}
	switch x := v.(type) {
	case *value.Tuple:
		for i, a := range x.Type.Attrs() {
			collectOwned(a.Comp, x.Fields[i], out)
		}
	case *value.Set:
		if elem, ok := types.ElemOf(comp.Type); ok {
			for _, e := range x.Elems {
				collectOwned(elem, e, out)
			}
		}
	case *value.Array:
		if elem, ok := types.ElemOf(comp.Type); ok {
			for _, e := range x.Elems {
				collectOwned(elem, e, out)
			}
		}
	}
}

// destroyOwned recursively destroys the own-ref components reachable
// from a value being discarded.
//
// extra:requires db.wmu.W
func (s *Store) destroyOwned(comp types.Component, v value.Value) error {
	owned := map[oid.OID]bool{}
	collectOwned(comp, v, owned)
	for id := range owned {
		if s.Exists(id) {
			if err := s.Delete(id); err != nil {
				return err
			}
		}
	}
	return nil
}
