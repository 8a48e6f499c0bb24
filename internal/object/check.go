package object

import (
	"fmt"
	"sort"

	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// CheckConsistency validates the object store's structural invariants —
// the database fsck. It verifies that:
//
//   - every extent's member list and the directory agree: each member's
//     entry names its extent and its position in the list, and holds its
//     tuple, and the list holds every member of the extent once;
//   - ownership is symmetric: an own-ref component's recorded owner holds
//     a reference to it, and every own-ref reference points to a live
//     component owned by the referencing object;
//   - no object is owned by a dead owner;
//   - every index entry refers to a live object whose current key matches,
//     and every object appears under its key in every applicable index;
//   - unique indexes hold no duplicate keys.
//
// It returns the list of violations found (empty means consistent).
// Violations come back in a fixed order (objects by OID, extents by
// name, members by position) so two fscks of the same store produce the
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

	// Pass 1: the member lists and the directory agree, both ways; and
	// record owned references, the variables' too.
	ownedRefs := map[oid.OID]oid.OID{} // component -> owner (from data)
	varOwners := map[oid.OID]bool{}
	for _, name := range sortedKeys(s.varVals) {
		if v, ok := s.cat.Var(name); ok {
			varOwners[varOwner(name)] = true
			collectOwnedWithDup(v.Comp, s.varVals[name], varOwner(name), ownedRefs, report)
		}
	}
	for _, e := range dir {
		id, so := e.id, e.so
		if so.ext != nil {
			if m, ok := so.ext.members.at(s.pos(so)); !ok || m.id != id {
				report("object %s: its position %d in extent %s holds %s", id, s.pos(so), so.ext.name, m.id)
			} else if m.tv != so.tv {
				report("object %s: its member in extent %s holds %s, working value is %s", id, so.ext.name, m.tv, so.tv)
			}
		}
		tv, err := s.working(id, so)
		if err != nil {
			report("object %s: unreadable: %v", id, err)
			continue
		}
		comp := types.Component{Mode: types.Own, Type: tv.Type}
		collectOwnedWithDup(comp, tv, id, ownedRefs, report)
		if owner := so.owner(s.restored); !owner.IsNil() && !s.Exists(owner) && !varOwners[owner] {
			report("object %s: owner %s is dead", id, owner)
		}
	}
	for _, name := range s.extentNames() {
		x, n := s.extents[name], 0
		x.members.each(func(pos int, m member) error {
			n++
			if so, live := s.dir.get(m.id); !live || so.ext != x || s.pos(so) != pos {
				report("extent %s: member %s at %d has no directory entry there", name, m.id, pos)
			}
			return nil
		})
		if n != x.members.n {
			report("extent %s: %d members, counted %d", name, n, x.members.n)
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
		if owner := so.owner(s.restored); owner != ownerFromData {
			report("component %s: recorded owner %s, referenced by %s", compID, owner, ownerFromData)
		}
	}
	for _, e := range dir {
		if owner := e.so.owner(s.restored); e.so.ext == nil && !owner.IsNil() {
			if _, referenced := ownedRefs[e.id]; !referenced {
				report("component %s: owner %s holds no reference to it", e.id, owner)
			}
		}
	}
	// Pass 3: indexes.
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
