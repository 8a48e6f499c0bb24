package object

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// keyFor evaluates an index path (own attributes only, no reference
// chasing) against a tuple and encodes the result as a B+-tree key.
// Unindexable values (nulls, collections) report ok=false and the object
// simply does not appear in the index — a standard sparse-index rule.
func keyFor(tv *value.Tuple, path []string) ([]byte, bool) {
	var cur value.Value = tv
	for _, step := range path {
		t, ok := cur.(*value.Tuple)
		if !ok {
			return nil, false
		}
		cur = t.Get(step)
		if value.IsNull(cur) {
			return nil, false
		}
	}
	return codec.EncodeKey(cur)
}

// validateIndexPath checks at definition time that the path traverses
// own tuple attributes and lands on an indexable scalar.
func validateIndexPath(tt *types.TupleType, path []string) error {
	cur := tt
	for i, step := range path {
		a, ok := cur.Attr(step)
		if !ok {
			return fmt.Errorf("type %s has no attribute %s", cur.Name, step)
		}
		if a.Comp.Mode != types.Own {
			return fmt.Errorf("index paths may not traverse %s attribute %s (indexes cover own data only)", a.Comp.Mode, step)
		}
		if i == len(path)-1 {
			switch a.Comp.Type.Kind() {
			case types.KInt1, types.KInt2, types.KInt4, types.KFloat4,
				types.KFloat8, types.KBool, types.KChar, types.KVarchar,
				types.KEnum, types.KADT:
				return nil
			default:
				return fmt.Errorf("attribute %s of type %s is not indexable", step, a.Comp.Type)
			}
		}
		nt, ok := a.Comp.Type.(*types.TupleType)
		if !ok {
			return fmt.Errorf("attribute %s is not a tuple; cannot continue index path", step)
		}
		cur = nt
	}
	return nil
}

// indexKey computes the (possibly composite) key of an object under an
// index. Composite keys concatenate the order-preserving encodings of
// their attribute paths; any null component exempts the object.
func indexKey(tv *value.Tuple, ix *catalog.Index) ([]byte, bool) {
	if len(ix.KeyPaths) == 0 {
		return keyFor(tv, ix.Path)
	}
	var out []byte
	for _, p := range ix.KeyPaths {
		k, ok := keyFor(tv, p)
		if !ok {
			return nil, false
		}
		out = append(out, k...)
	}
	return out, true
}

// BuildIndex creates a secondary index over an own scalar attribute path
// of an object-set extent, backfills it from the extent's current
// contents, and registers it in the catalog. Unique indexes additionally
// enforce that no two live objects share a key; backfill fails on an
// existing violation.
//
// extra:requires db.wmu.W
func (s *Store) BuildIndex(name, extent string, path []string, unique bool) (*catalog.Index, error) {
	v, ok := s.cat.Var(extent)
	if !ok || !v.IsObjectSet() {
		return nil, fmt.Errorf("%s is not an object-set extent", extent)
	}
	elem, _ := v.ElemType()
	tt := elem.Type.(*types.TupleType)
	if err := validateIndexPath(tt, path); err != nil {
		return nil, err
	}
	ix := &catalog.Index{Name: name, Extent: extent, Path: path, Unique: unique, Tree: storage.NewBTree()}
	if err := s.backfill(ix); err != nil {
		return nil, err
	}
	if err := s.cat.AddIndex(ix); err != nil {
		return nil, err
	}
	s.markIndexes()
	return ix, nil
}

// BuildKey registers a key constraint on a set instance: a hidden unique
// index over the given own scalar attributes.
//
// extra:requires db.wmu.W
func (s *Store) BuildKey(extent string, attrs []string, n int) (*catalog.Index, error) {
	v, ok := s.cat.Var(extent)
	if !ok {
		return nil, fmt.Errorf("key constraints apply to object-set extents; %s is not one", extent)
	}
	paths, err := KeyPaths(v, attrs)
	if err != nil {
		return nil, err
	}
	ix := &catalog.Index{
		Name:     fmt.Sprintf("%s_key%d", extent, n),
		Extent:   extent,
		Unique:   true,
		KeyPaths: paths,
		Tree:     storage.NewBTree(),
	}
	if err := s.backfill(ix); err != nil {
		return nil, err
	}
	if err := s.cat.AddIndex(ix); err != nil {
		return nil, err
	}
	s.markIndexes()
	return ix, nil
}

// KeyPaths checks a key constraint on a variable — an object-set extent
// whose element type has the key's attributes as own indexable scalars —
// and returns the attributes as index paths. Callers check a create
// statement's keys with it before creating anything.
func KeyPaths(v *catalog.Variable, attrs []string) ([][]string, error) {
	if !v.IsObjectSet() {
		return nil, fmt.Errorf("key constraints apply to object-set extents; %s is not one", v.Name)
	}
	elem, _ := v.ElemType()
	tt := elem.Type.(*types.TupleType)
	paths := make([][]string, 0, len(attrs))
	for _, a := range attrs {
		p := []string{a}
		if err := validateIndexPath(tt, p); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// backfill loads an index from the extent's current objects, enforcing
// uniqueness as it goes. It reads the store's frozen view, whose member
// lists hold the objects in scan order, so the tree is built as a scan
// would build it, copying and decoding nothing.
//
// extra:requires db.wmu.W
func (s *Store) backfill(ix *catalog.Index) error {
	view, err := s.View()
	if err != nil {
		return err
	}
	return view.ScanExtent(ix.Extent, func(id oid.OID, tv *value.Tuple) error {
		key, ok := indexKey(tv, ix)
		if !ok {
			return nil
		}
		if ix.Unique {
			dup := false
			ix.Tree.Lookup(key, func(uint64) bool { dup = true; return false })
			if dup {
				return fmt.Errorf("key violation in %s: duplicate %s", ix.Extent, keyDesc(ix))
			}
		}
		ix.Tree.Insert(key, uint64(id))
		return nil
	})
}

func keyDesc(ix *catalog.Index) string {
	if len(ix.KeyPaths) > 0 {
		parts := make([]string, len(ix.KeyPaths))
		for i, p := range ix.KeyPaths {
			parts[i] = strings.Join(p, ".")
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return "(" + strings.Join(ix.Path, ".") + ")"
}

// checkUnique verifies that storing tv under id would not violate any
// unique index on the extent.
func (s *Store) checkUnique(extent string, id oid.OID, tv *value.Tuple) error {
	for _, ix := range s.cat.IndexesOn(extent) {
		if !ix.Unique {
			continue
		}
		key, ok := indexKey(tv, ix)
		if !ok {
			continue
		}
		var clash bool
		ix.Tree.Lookup(key, func(v uint64) bool {
			if oid.OID(v) != id {
				clash = true
				return false
			}
			return true
		})
		if clash {
			return fmt.Errorf("key violation: %s already has an object with this %s value", extent, keyDesc(ix))
		}
	}
	return nil
}

// indexInsert maintains every index on extent for a newly stored
// object. The working trees are always writable: Commit publishes a
// Clone, never the tree itself.
//
// extra:requires db.wmu.W
func (s *Store) indexInsert(extent string, id oid.OID, tv *value.Tuple) {
	for _, ix := range s.cat.IndexesOn(extent) {
		if key, ok := indexKey(tv, ix); ok {
			ix.Tree.Insert(key, uint64(id))
		}
	}
}

// indexDelete removes an object's entries from every index on extent.
//
// extra:requires db.wmu.W
func (s *Store) indexDelete(extent string, id oid.OID, tv *value.Tuple) {
	for _, ix := range s.cat.IndexesOn(extent) {
		if key, ok := indexKey(tv, ix); ok {
			ix.Tree.Delete(key, uint64(id))
		}
	}
}

// indexMove re-keys an updated object in every index on extent whose
// key for it changed, and leaves the others untouched: an update of an
// attribute no index covers writes no B+-tree node.
//
// extra:requires db.wmu.W
func (s *Store) indexMove(extent string, id oid.OID, old, tv *value.Tuple) {
	for _, ix := range s.cat.IndexesOn(extent) {
		was, had := indexKey(old, ix)
		is, has := indexKey(tv, ix)
		if had == has && bytes.Equal(was, is) {
			continue
		}
		if had {
			ix.Tree.Delete(was, uint64(id))
		}
		if has {
			ix.Tree.Insert(is, uint64(id))
		}
	}
}
