package object

import (
	"fmt"
	"maps"
	"slices"
	"strings"

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

// elemChunkLen is the most elements one chunk of an element list holds.
const elemChunkLen = 256

// elemList is a ref-set or value-set extent: its elements in scan order,
// in chunks of at most elemChunkLen; an element's position is its
// chunk's index times elemChunkLen plus its index in the chunk. A
// snapshot's list is immutable. A window that writes the extent works on
// a copy of the head's chunk list (writeElem) and copies each chunk on
// its first write to it (mine). An append goes to the tail chunk; a
// delete leaves nil in its element's place, so positions a scan of the
// head handed out stay valid until the freeze compacts the chunk (seal).
type elemList struct {
	chunks [][]value.Value
	n      int    // live elements
	mine   []bool // per chunk: copied by the window; nil unless the window copied the list
}

// each visits the live elements in scan order.
func (l *elemList) each(fn func(pos int, v value.Value) error) error {
	for ci, c := range l.chunks {
		for i, v := range c {
			if v == nil {
				continue // deleted in the window
			}
			if err := fn(ci*elemChunkLen+i, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunk returns chunk ci, copying it first if the window has not.
func (l *elemList) chunk(ci int) []value.Value {
	if !l.mine[ci] {
		c := make([]value.Value, len(l.chunks[ci]), elemChunkLen)
		copy(c, l.chunks[ci])
		l.chunks[ci], l.mine[ci] = c, true
	}
	return l.chunks[ci]
}

func (l *elemList) append(v value.Value) {
	if len(l.chunks) == 0 || len(l.chunks[len(l.chunks)-1]) == elemChunkLen {
		l.chunks, l.mine = append(l.chunks, nil), append(l.mine, false)
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunk(last), v)
	l.n++
}

func (l *elemList) delete(pos int) error {
	ci, i := pos/elemChunkLen, pos%elemChunkLen
	if pos < 0 || ci >= len(l.chunks) || i >= len(l.chunks[ci]) || l.chunks[ci][i] == nil {
		return fmt.Errorf("no element at position %d", pos)
	}
	l.chunk(ci)[i] = nil
	l.n--
	return nil
}

// seal returns the list as the next snapshot holds it: the chunks the
// window wrote compacted to exactly their live elements, and empty ones
// dropped; every other chunk shared. l is the window's, and spent.
func (l *elemList) seal() *elemList {
	chunks := l.chunks[:0]
	for ci, c := range l.chunks {
		if l.mine[ci] {
			if c = slices.DeleteFunc(c, func(v value.Value) bool { return v == nil }); len(c) < cap(c) {
				c = append(make([]value.Value, 0, len(c)), c...)
			}
		}
		if len(c) > 0 {
			chunks = append(chunks, c)
		}
	}
	return &elemList{chunks: chunks, n: l.n}
}

// writeElem returns the working list of an element extent, which the
// window may write.
func (s *Store) writeElem(extent string) (*elemList, error) {
	l, ok := s.elems[extent]
	if !ok {
		return nil, fmt.Errorf("no element extent %s", extent)
	}
	if l.mine == nil {
		l = &elemList{chunks: slices.Clone(l.chunks), n: l.n, mine: make([]bool, len(l.chunks))}
		s.writeVals()
		s.elems[extent] = l
	}
	return l, nil
}

// InsertElem appends a value to a ref-set or value-set extent.
//
// extra:requires db.wmu.W
func (s *Store) InsertElem(extent string, v value.Value) error {
	s.bump()
	l, err := s.writeElem(extent)
	if err != nil {
		return err
	}
	if _, err := s.encodeRecord(v); err != nil {
		return err
	}
	l.append(keep(v))
	return nil
}

// keep returns a copy of an element for the store to keep: value.Copy,
// with every string cloned, so a string literal does not pin its
// statement's text.
func keep(v value.Value) value.Value {
	switch x := v.(type) {
	case value.Str:
		return value.Str{K: x.K, V: strings.Clone(x.V)}
	case *value.Set:
		return &value.Set{Elems: keepAll(x.Elems)}
	case *value.Array:
		return &value.Array{Elems: keepAll(x.Elems), Fixed: x.Fixed}
	}
	return value.Copy(v) // a value set holds no tuple
}

func keepAll(vs []value.Value) []value.Value {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		out[i] = keep(v)
	}
	return out
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
