package object

import (
	"fmt"
	"slices"

	"repro/internal/oid"
	"repro/internal/value"
)

// chunkLen is the most items one chunk of a chunk list holds.
const chunkLen = 256

// chunkList is an extent in scan order: an object extent's members
// (memberList) or a ref-set or value-set extent's elements (elemList),
// in chunks of at most chunkLen. An item's position is its chunk's index
// times chunkLen plus its index in the chunk. A snapshot's list is
// immutable. A window that writes the extent works on an edit of the
// head's list and copies each chunk on its first write to it (mine). An
// append goes to the tail chunk; a delete leaves the zero T in its
// item's place, so every other position stays valid until the freeze
// compacts the chunk (seal). A sealed list holds no zero T.
type chunkList[T comparable] struct {
	chunks [][]T
	n      int    // live items
	mine   []bool // per chunk: copied by the window; nil unless the list is an edit
}

// member is one object of an extent's member list.
type member struct {
	id oid.OID
	tv *value.Tuple
}

type (
	memberList = chunkList[member]
	elemList   = chunkList[value.Value]
)

// edit returns a list the window may write, sharing l's chunks until it
// writes them.
func (l *chunkList[T]) edit() *chunkList[T] {
	return &chunkList[T]{chunks: slices.Clone(l.chunks), n: l.n, mine: make([]bool, len(l.chunks))}
}

// each visits the live items in scan order.
func (l *chunkList[T]) each(fn func(pos int, v T) error) error {
	var zero T
	for ci, c := range l.chunks {
		for i, v := range c {
			if v == zero {
				continue // deleted in the window
			}
			if err := fn(ci*chunkLen+i, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// at returns the item at pos; ok is false for a position that holds none.
func (l *chunkList[T]) at(pos int) (v T, ok bool) {
	if ci, i := pos/chunkLen, pos%chunkLen; pos >= 0 && ci < len(l.chunks) && i < len(l.chunks[ci]) {
		v = l.chunks[ci][i]
	}
	var zero T
	return v, v != zero
}

// chunk returns chunk ci, copying it first if the window has not.
func (l *chunkList[T]) chunk(ci int) []T {
	if !l.mine[ci] {
		c := make([]T, len(l.chunks[ci]), chunkLen)
		copy(c, l.chunks[ci])
		l.chunks[ci], l.mine[ci] = c, true
	}
	return l.chunks[ci]
}

// append adds v at the tail and returns its position.
func (l *chunkList[T]) append(v T) int {
	if len(l.chunks) == 0 || len(l.chunks[len(l.chunks)-1]) == chunkLen {
		l.chunks, l.mine = append(l.chunks, nil), append(l.mine, false)
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunk(last), v)
	l.n++
	return last*chunkLen + len(l.chunks[last]) - 1
}

// set replaces the live item at pos.
func (l *chunkList[T]) set(pos int, v T) error {
	if _, ok := l.at(pos); !ok {
		return fmt.Errorf("no item at position %d", pos)
	}
	l.chunk(pos / chunkLen)[pos%chunkLen] = v
	return nil
}

func (l *chunkList[T]) delete(pos int) error {
	var zero T
	if err := l.set(pos, zero); err != nil {
		return err
	}
	l.n--
	return nil
}

// seal returns the list as the next snapshot holds it: the chunks the
// window wrote compacted to exactly their live items, every other chunk
// shared, and empty chunks dropped from the tail. A chunk emptied
// elsewhere stays, empty, so no later chunk's positions shift. moved,
// when not nil, is told each item whose position the compaction changed.
// l is the window's, and spent.
func (l *chunkList[T]) seal(moved func(pos int, v T)) *chunkList[T] {
	var zero T
	for ci, c := range l.chunks {
		if !l.mine[ci] {
			continue
		}
		k := 0
		for i, v := range c {
			if v == zero {
				continue
			}
			if k != i {
				c[k] = v
				if moved != nil {
					moved(ci*chunkLen+k, v)
				}
			}
			k++
		}
		clear(c[k:]) // hold no item past its deletion
		switch c = c[:k]; {
		case k == 0:
			c = nil
		case k < cap(c):
			c = append(make([]T, 0, k), c...)
		}
		l.chunks[ci] = c
	}
	chunks := l.chunks
	for len(chunks) > 0 && len(chunks[len(chunks)-1]) == 0 {
		chunks = chunks[:len(chunks)-1]
	}
	return &chunkList[T]{chunks: chunks, n: l.n}
}
