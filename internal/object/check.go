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
//   - every live object's record decodes to a tuple equal, kinds and
//     all, to the object's working value — the tuple the store reads in
//     the record's place (Store.working) — and of its recorded type;
//   - ownership is symmetric: an own-ref component's recorded owner holds
//     a reference to it, and every own-ref reference points to a live
//     nursery object owned by the referencing object;
//   - no object is owned by a dead owner;
//   - extent reverse maps (RID -> OID) agree with the object map;
//   - every index entry refers to a live object whose current key matches,
//     and every object appears under its key in every applicable index;
//   - unique indexes hold no duplicate keys.
//
// It returns the list of violations found (empty means consistent).
// Violations come back in a fixed order (objects by OID, extents by
// name, records by RID) so two fscks of the same store produce the same
// report — map iteration order never leaks into the output.
//
// extra:output
func (s *Store) CheckConsistency() []string {
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	// Pass 1: decode every object's record and hold it against the
	// working value; record owned references.
	ownedRefs := map[oid.OID]oid.OID{} // component -> owner (from data)
	for _, id := range sortedOIDs(s.omap) {
		info := s.omap[id]
		tv, err := s.working(id, info)
		if err != nil {
			report("object %s: unreadable: %v", id, err)
			continue
		}
		if onPage, err := s.readRecord(id, info); err != nil {
			report("object %s: record unreadable: %v", id, err)
		} else if !reflect.DeepEqual(onPage, tv) {
			report("object %s: record decodes to %s, working value is %s", id, onPage, tv)
		}
		if tv.Type != info.typ {
			report("object %s: decoded type %s, recorded %s", id, tv.Type.Name, info.typ.Name)
		}
		comp := types.Component{Mode: types.Own, Type: tv.Type}
		collectOwnedWithDup(comp, tv, id, ownedRefs, report)
		if !info.owner.IsNil() {
			if _, live := s.omap[info.owner]; !live {
				report("object %s: owner %s is dead", id, info.owner)
			}
		}
	}
	// Pass 2: ownership symmetry.
	for _, compID := range sortedOIDs(ownedRefs) {
		ownerFromData := ownedRefs[compID]
		info, live := s.omap[compID]
		if !live {
			report("own-ref component %s (of %s) is dead", compID, ownerFromData)
			continue
		}
		if info.extent != "" {
			report("own-ref component %s lives in extent %s", compID, info.extent)
		}
		if info.owner != ownerFromData {
			report("component %s: recorded owner %s, referenced by %s", compID, info.owner, ownerFromData)
		}
	}
	for _, id := range sortedOIDs(s.omap) {
		info := s.omap[id]
		if info.extent == "" && !info.owner.IsNil() {
			if _, referenced := ownedRefs[id]; !referenced {
				report("component %s: owner %s holds no reference to it", id, info.owner)
			}
		}
	}
	// Pass 3: extent reverse maps.
	for _, ext := range sortedKeys(s.rids) {
		byRID := s.rids[ext]
		for _, rid := range sortedRIDs(byRID) {
			id := byRID[rid]
			info, live := s.omap[id]
			if !live {
				report("extent %s: rid map points at dead %s", ext, id)
				continue
			}
			if info.extent != ext || info.rid != rid {
				report("extent %s: rid map disagrees with omap for %s", ext, id)
			}
		}
	}
	for _, id := range sortedOIDs(s.omap) {
		info := s.omap[id]
		if info.extent == "" {
			continue
		}
		if got := s.rids[info.extent][info.rid]; got != id {
			report("object %s: missing from extent %s rid map", id, info.extent)
		}
	}
	// Pass 4: indexes.
	for _, ext := range s.extentNames() {
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
			s.ScanExtent(ext, func(id oid.OID, tv *value.Tuple) error {
				key, ok := indexKey(tv, ix)
				if !ok {
					return nil
				}
				found := false
				ix.Tree.Lookup(key, func(v uint64) bool {
					if oid.OID(v) == id {
						found = true
						return false
					}
					return true
				})
				if !found {
					report("index %s: object %s missing", ix.Name, id)
				}
				return nil
			})
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

func sortedRIDs[T any](m map[storage.RID]T) []storage.RID {
	out := make([]storage.RID, 0, len(m))
	for rid := range m {
		out = append(out, rid)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Page != out[j].Page {
			return out[i].Page < out[j].Page
		}
		return out[i].Slot < out[j].Slot
	})
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
