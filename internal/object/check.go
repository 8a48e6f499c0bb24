package object

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// CheckConsistency validates the object store's structural invariants —
// the database fsck. It verifies that:
//
//   - every extent member's record decodes to a tuple equal, kinds and
//     all, to the object's working value — the tuple the store reads in
//     the record's place (Store.working);
//   - ownership is symmetric: an own-ref component's recorded owner holds
//     a reference to it, and every own-ref reference points to a live
//     component owned by the referencing object;
//   - no object is owned by a dead owner;
//   - every live slot of an extent's heap pages is claimed by exactly
//     one directory entry, and every member's RID names a live slot of
//     its extent's heap;
//   - every index entry refers to a live object whose current key matches,
//     and every object appears under its key in every applicable index;
//   - unique indexes hold no duplicate keys.
//
// It returns the list of violations found (empty means consistent).
// Violations come back in a fixed order (objects by OID, heaps by name,
// records by page and slot) so two fscks of the same store produce the
// same report — map iteration order never leaks into the output.
//
// extra:output
func (s *Store) CheckConsistency() []string {
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	type entry struct {
		id oid.OID
		so snapObj
	}
	var dir []entry // the directory, in OID order
	s.dir.m.each(func(id oid.OID, so snapObj) { dir = append(dir, entry{id, so}) })

	// Pass 1: decode every extent member's record and hold it against
	// the working value; record owned references.
	ownedRefs := map[oid.OID]oid.OID{} // component -> owner (from data)
	for _, e := range dir {
		id, so := e.id, e.so
		tv, err := s.working(id, so)
		if err != nil {
			report("object %s: unreadable: %v", id, err)
			continue
		}
		if so.ext != nil { // a component has no record
			if onPage, err := s.readRecord(id, so); err != nil {
				report("object %s: record unreadable: %v", id, err)
			} else if !reflect.DeepEqual(onPage, tv) {
				report("object %s: record decodes to %s, working value is %s", id, onPage, tv)
			}
		}
		comp := types.Component{Mode: types.Own, Type: tv.Type}
		collectOwnedWithDup(comp, tv, id, ownedRefs, report)
		if !so.owner.IsNil() && !s.Exists(so.owner) {
			report("object %s: owner %s is dead", id, so.owner)
		}
	}
	// Pass 2: ownership symmetry.
	for _, compID := range sortedOIDs(ownedRefs) {
		ownerFromData := ownedRefs[compID]
		so, live := s.dir.get(compID)
		if !live {
			report("own-ref component %s (of %s) is dead", compID, ownerFromData)
			continue
		}
		if so.ext != nil {
			report("own-ref component %s lives in extent %s", compID, so.ext.name)
		}
		if so.owner != ownerFromData {
			report("component %s: recorded owner %s, referenced by %s", compID, so.owner, ownerFromData)
		}
	}
	for _, e := range dir {
		if e.so.ext == nil && !e.so.owner.IsNil() {
			if _, referenced := ownedRefs[e.id]; !referenced {
				report("component %s: owner %s holds no reference to it", e.id, e.so.owner)
			}
		}
	}
	// Pass 3: every live slot is claimed by exactly one entry.
	type at struct {
		x   *objExtent
		rid storage.RID
	}
	claims := map[at][]oid.OID{}
	for _, e := range dir {
		if e.so.ext != nil {
			k := at{e.so.ext, e.so.rid()}
			claims[k] = append(claims[k], e.id)
		}
	}
	for _, name := range s.extentNames() {
		x := s.extents[name]
		for _, pid := range x.heap.Pages() {
			err := x.heap.WalkPage(pid, func(sl storage.SlotID, _ []byte) error {
				k := at{x, storage.RID{Page: pid, Slot: sl}}
				if ids := claims[k]; len(ids) == 0 {
					report("extent %s: record %s is claimed by no object", name, k.rid)
				} else if len(ids) > 1 {
					report("extent %s: record %s is claimed by %v", name, k.rid, ids)
				}
				delete(claims, k)
				return nil
			})
			if err != nil {
				report("extent %s: page %d unreadable: %v", name, pid, err)
			}
		}
	}
	for _, e := range dir { // claims holds extent members alone
		if _, left := claims[at{e.so.ext, e.so.rid()}]; left {
			report("object %s: %s holds no record", e.id, e.so.rid())
		}
	}
	// Pass 4: indexes.
	for _, ext := range s.extentNames() {
		x := s.extents[ext]
		for _, ix := range s.cat.IndexesOn(ext) {
			seen := map[string]oid.OID{}
			ix.Tree.Range(nil, nil, true, true, func(key []byte, v uint64) bool {
				id := oid.OID(v)
				tv, ok, err := s.Get(id)
				if err != nil || !ok {
					report("index %s: entry for dead object %s", ix.Name, id)
					return true
				}
				cur, curOK := indexKey(tv, ix)
				if !curOK || string(cur) != string(key) {
					report("index %s: stale key for %s", ix.Name, id)
				}
				if ix.Unique {
					if prev, dup := seen[string(key)]; dup {
						report("index %s: unique violation between %s and %s", ix.Name, prev, id)
					}
					seen[string(key)] = id
				}
				return true
			})
			// Completeness: every object with a key appears.
			for _, e := range dir {
				if e.so.ext != x {
					continue
				}
				tv, err := s.working(e.id, e.so)
				if err != nil {
					continue // pass 1 reported it
				}
				key, ok := indexKey(tv, ix)
				if !ok {
					continue
				}
				found := false
				ix.Tree.Lookup(key, func(v uint64) bool {
					if oid.OID(v) == e.id {
						found = true
						return false
					}
					return true
				})
				if !found {
					report("index %s: object %s missing", ix.Name, e.id)
				}
			}
		}
	}
	return bad
}

func (s *Store) extentNames() []string {
	return sortedKeys(s.extents)
}

// sortedOIDs returns a map's OID keys in ascending order; the fsck
// iterates through these so its report order is deterministic.
func sortedOIDs[T any](m map[oid.OID]T) []oid.OID {
	out := make([]oid.OID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// collectOwnedWithDup gathers own-ref references, reporting a component
// referenced twice from the same tree (which would double-own it).
func collectOwnedWithDup(comp types.Component, v value.Value, owner oid.OID, out map[oid.OID]oid.OID, report func(string, ...any)) {
	if value.IsNull(v) {
		return
	}
	switch comp.Mode {
	case types.OwnRef:
		if r, ok := v.(value.Ref); ok && !r.OID.IsNil() {
			if prev, dup := out[r.OID]; dup {
				report("component %s owned by both %s and %s", r.OID, prev, owner)
			}
			out[r.OID] = owner
		}
		return
	case types.RefTo:
		return
	}
	switch x := v.(type) {
	case *value.Tuple:
		for i, a := range x.Type.Attrs() {
			collectOwnedWithDup(a.Comp, x.Fields[i], owner, out, report)
		}
	case *value.Set:
		if elem, ok := types.ElemOf(comp.Type); ok {
			for _, e := range x.Elems {
				collectOwnedWithDup(elem, e, owner, out, report)
			}
		}
	case *value.Array:
		if elem, ok := types.ElemOf(comp.Type); ok {
			for _, e := range x.Elems {
				collectOwnedWithDup(elem, e, owner, out, report)
			}
		}
	}
}
