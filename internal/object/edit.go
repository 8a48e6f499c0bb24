package object

import (
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/codec"
	"repro/internal/oid"
	"repro/internal/value"
)

// The data lines. A dump's data section and the log's data records are
// one grammar, which the store writes (Diff, and AppendObjHead for a
// dump) and applies (ApplyLine):
//
//	OBJ <extent or -> <oid> <owner> <tuple>  restore the object, or replace a live one's tuple and owner
//	DEL <oid>                                remove the object (not its components: each has its line)
//	VAR <name> <value>                       set a singleton or array variable
//	ELEM <name> <value>                      append an element to an element set
//	ELEMDEL <name> <ordinal>                 drop the element at that place of the set's scan order
//	OIDS <oid>                               never hand out an OID at or below this one
//
// A line's payload, the codec-encoded tuple or value that ends an OBJ,
// VAR or ELEM line, is hex in a dump, which is text, and raw in the
// log, which frames each line. A replay of the lines since a snapshot
// rebuilds the store, OIDs included, without running a write again.

// Diff calls emit with each data line, its payload raw, that takes the
// store from was to is, two frozen snapshots of it, is the later one,
// under one schema: the variables and extents of is are those of was.
// A line is valid only during its call. Diff walks only what differs:
// the directory nodes, member chunks and element chunks is does not
// share with was. Objects come in OID order, then variables and element
// sets by name; a set's drops come in descending ordinal order, before
// its appends. An OIDS line ends the edit when the generator stands
// above every OID it restores: the edit allocated OIDs it did not keep.
func Diff(was, is *Snapshot, emit func(line []byte) error) error {
	b := make([]byte, 0, 256)
	var err error
	top := was.oids
	diffObjs(was.objs, is.objs, func(id oid.OID, so snapObj) {
		switch {
		case err != nil:
			return
		case so.tv == nil:
			b = strconv.AppendUint(append(b[:0], "DEL "...), uint64(id), 10)
		default:
			if b, err = codec.Encode(AppendObjHead(b[:0], so.extentName(), id, so.owner(nil)), so.tv); err != nil {
				return
			}
			top = max(top, id)
		}
		err = emit(b)
	})
	if err != nil {
		return err
	}
	// A window that wrote no variable or element set shares the maps
	// (Store.writeVals).
	for _, name := range sortedKeysUnless(was.vars, is.vars) {
		v := is.vars[name]
		if old, ok := was.vars[name]; ok && same(old, v) {
			continue
		}
		if b, err = codec.Encode(appendHead(b[:0], "VAR", name), v); err != nil {
			return err
		}
		if err := emit(b); err != nil {
			return err
		}
	}
	for _, name := range sortedKeysUnless(was.elems, is.elems) {
		old := was.elems[name]
		if old == is.elems[name] {
			continue
		}
		if old == nil {
			old = &elemList{}
		}
		dropped, added := diffElems(old, is.elems[name])
		for i := len(dropped) - 1; i >= 0; i-- {
			if err := emit(strconv.AppendInt(appendHead(b[:0], "ELEMDEL", name), int64(dropped[i]), 10)); err != nil {
				return err
			}
		}
		for _, v := range added {
			if b, err = codec.Encode(appendHead(b[:0], "ELEM", name), v); err != nil {
				return err
			}
			if err := emit(b); err != nil {
				return err
			}
		}
	}
	if is.oids > top {
		return emit(strconv.AppendUint(append(b[:0], "OIDS "...), uint64(is.oids), 10))
	}
	return nil
}

// sortedKeysUnless returns the keys of m, sorted, unless m is was: the
// same map has no key whose value differs.
func sortedKeysUnless[V any](was, m map[string]V) []string {
	if reflect.ValueOf(was).UnsafePointer() == reflect.ValueOf(m).UnsafePointer() {
		return nil
	}
	return sortedKeys(m)
}

// AppendObjHead appends the data line of an object up to its payload:
// "OBJ <extent or -> <oid> <owner> ".
func AppendObjHead(b []byte, extent string, id, owner oid.OID) []byte {
	if extent == "" {
		extent = "-"
	}
	b = strconv.AppendUint(appendHead(b, "OBJ", extent), uint64(id), 10)
	b = strconv.AppendUint(append(b, ' '), uint64(owner), 10)
	return append(b, ' ')
}

// appendHead appends "kind name ".
func appendHead(b []byte, kind, name string) []byte {
	b = append(append(b, kind...), ' ')
	return append(append(b, name...), ' ')
}

// lineFields is the number of fields of each kind of data line.
var lineFields = map[string]int{"OBJ": 5, "DEL": 2, "VAR": 3, "ELEM": 3, "ELEMDEL": 3, "OIDS": 2}

// ApplyLine applies one data line to the working store, and returns its
// payload (nil for a line without one), decoded from hex when the line
// is a dump's (hexed).
//
// extra:requires db.wmu.W
func (s *Store) ApplyLine(line string, hexed bool) ([]byte, error) {
	kind, _, _ := strings.Cut(line, " ")
	n := lineFields[kind]
	if n == 0 {
		return nil, fmt.Errorf("unknown data record %q", kind)
	}
	f := strings.SplitN(line, " ", n)
	if len(f) != n {
		return nil, fmt.Errorf("malformed %s line", kind)
	}
	switch kind {
	case "DEL", "OIDS", "ELEMDEL":
		v, err := strconv.ParseUint(f[n-1], 10, 64)
		switch {
		case err != nil:
			return nil, err
		case kind == "DEL":
			return nil, s.RemoveObject(oid.OID(v))
		case kind == "OIDS":
			s.gen.Advance(oid.OID(v))
			return nil, nil
		}
		return nil, s.RemoveElem(f[1], int(v))
	}
	data := []byte(f[n-1])
	if hexed {
		var err error
		if data, err = hex.DecodeString(f[n-1]); err != nil {
			return nil, err
		}
	}
	// The store keeps the names it is given, and a field is a substring
	// of the line: the catalog's own copy does not pin the line.
	name := f[1]
	if v, ok := s.cat.Var(name); ok {
		name = v.Name
	}
	switch kind {
	case "OBJ":
		if name == "-" {
			name = ""
		}
		id, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return nil, err
		}
		owner, err := strconv.ParseUint(f[3], 10, 64)
		if err != nil {
			return nil, err
		}
		if hexed && s.Exists(oid.OID(id)) { // a dump holds each object once
			return nil, fmt.Errorf("restore: OID %d already live", id)
		}
		return data, s.RestoreObject(ExportObject{Extent: name, OID: oid.OID(id), Owner: oid.OID(owner), Data: data})
	case "ELEM":
		return data, s.RestoreElem(name, data)
	}
	return data, s.RestoreVar(name, data)
}

// diffObjs calls fn, in OID order, with the entry in is (a zero entry
// for none) of each OID whose entry differs between was and is. An
// entry that only moved in its member list is the same object. A
// subtree is the same when its node is: Diff descends only the paths
// the window's edits copied.
func diffObjs(was, is *objMap, fn func(id oid.OID, so snapObj)) {
	levels := max(was.levels, is.levels)
	if levels == 0 {
		return
	}
	diffNode(lift(was.root, was.levels, levels), lift(is.root, is.levels, levels), 0, uint((levels-1)*objBits), fn)
}

// lift puts n, the root of a map of the given levels, under enough
// roots to span a map of to levels, as set grows a map: as child 0.
func lift(n objNode, levels, to int) objNode {
	for ; n != nil && levels < to; levels++ {
		up := &objInner{}
		up.kids[0] = n
		n = up
	}
	return n
}

func diffNode(a, b objNode, base uint64, shift uint, fn func(id oid.OID, so snapObj)) {
	if a == b {
		return
	}
	if shift == 0 {
		la, _ := a.(*objLeaf)
		lb, _ := b.(*objLeaf)
		for i := range objFan {
			var x, y snapObj
			if la != nil {
				x = la.vals[i]
			}
			if lb != nil {
				y = lb.vals[i]
			}
			if x.tv != y.tv || x.owner(nil) != y.owner(nil) {
				fn(oid.OID(base|uint64(i)), y)
			}
		}
		return
	}
	ia, _ := a.(*objInner)
	ib, _ := b.(*objInner)
	for i := range objFan {
		var ka, kb objNode
		if ia != nil {
			ka = ia.kids[i]
		}
		if ib != nil {
			kb = ib.kids[i]
		}
		diffNode(ka, kb, base|uint64(i)<<shift, shift-objBits, fn)
	}
}

// diffElems returns how the element list was became is: the ordinals,
// ascending, of the items of was that is dropped, and the items is
// appended. A window deletes in place and appends at the tail, so is
// holds the items of was it kept, in their order, and then the appended
// ones; and a chunk keeps its index (seal drops only empty chunks at the
// tail). So the chunks are matched by index, a chunk is skipped where is
// shares it, and within a chunk the items are matched in order. Once an
// item of is matches none, the window appended it, when its chunk was
// the tail: every later item of was had been dropped, and every later
// item of is is appended.
func diffElems(was, is *elemList) (dropped []int, added []value.Value) {
	ord, tail := 0, false
	for ci := range max(len(was.chunks), len(is.chunks)) {
		var a, b []value.Value
		if ci < len(was.chunks) {
			a = was.chunks[ci]
		}
		if ci < len(is.chunks) {
			b = is.chunks[ci]
		}
		if !tail && len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) {
			ord += len(a)
			continue
		}
		i := 0
		for _, v := range b {
			for !tail && i < len(a) && !same(a[i], v) {
				dropped = append(dropped, ord+i)
				i++
			}
			if !tail && i < len(a) {
				i++
				continue
			}
			tail = true
			added = append(added, v)
		}
		for ; i < len(a); i++ {
			dropped = append(dropped, ord+i)
		}
		ord += len(a)
	}
	return dropped, added
}

// same reports whether a and b are the same stored value: == on the
// interfaces, except for an ADT value whose representation Go cannot
// compare, which is never the same as another.
func same(a, b value.Value) bool {
	if x, ok := a.(value.ADTVal); ok {
		y, ok := b.(value.ADTVal)
		return ok && x.ADT == y.ADT && (x.Rep == nil || reflect.TypeOf(x.Rep).Comparable()) && x.Rep == y.Rep
	}
	return a == b
}

// varOwner is the owner OID of the components a singleton or array
// variable owns: a function of the variable's name with the top bit
// set, so it is no OID the generator hands out, and it names the
// variable across a dump, a restart and the log. InitVar refuses a name
// whose owner OID another variable has.
func varOwner(name string) oid.OID {
	h := fnv.New64a()
	h.Write([]byte(name))
	return oid.OID(h.Sum64() | 1<<63)
}
