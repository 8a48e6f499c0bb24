// Package oid provides object identifiers for EXTRA objects.
//
// Every first-class EXTRA object (an element of a set or array extent, an
// own ref component, or a ref-erenced top-level object) carries a unique,
// never-reused OID. Own attributes are plain values and have no OID; they
// lack identity in the sense of [Khos86].
package oid

import (
	"fmt"
	"sync/atomic"
)

// OID identifies a first-class object. The zero OID is "no object" and is
// how null references are represented at the storage level.
type OID uint64

// Nil is the OID of no object; a ref holding Nil is a null reference.
const Nil OID = 0

// IsNil reports whether o identifies no object.
func (o OID) IsNil() bool { return o == Nil }

// String formats an OID for diagnostics, e.g. "oid#42".
func (o OID) String() string {
	if o == Nil {
		return "oid#nil"
	}
	return fmt.Sprintf("oid#%d", uint64(o))
}

// Generator hands out unique OIDs. It is safe for concurrent use.
// The zero Generator is ready to use and never emits Nil.
type Generator struct {
	last atomic.Uint64
}

// Next returns a fresh OID: never Nil, and never returned by this
// Generator since it was last Reset below it.
func (g *Generator) Next() OID {
	return OID(g.last.Add(1))
}

// Last returns the last OID handed out (Nil before the first).
func (g *Generator) Last() OID { return OID(g.last.Load()) }

// Reset rewinds the generator to hand out last+1 next: an aborted write
// that allocated past last used nothing, and its OIDs are handed out
// again.
func (g *Generator) Reset(last OID) { g.last.Store(uint64(last)) }

// Advance makes sure the generator will never hand out an OID at or below
// floor. It is used when reloading a dumped database so that new objects
// do not collide with restored ones.
func (g *Generator) Advance(floor OID) {
	for {
		cur := g.last.Load()
		if cur >= uint64(floor) {
			return
		}
		if g.last.CompareAndSwap(cur, uint64(floor)) {
			return
		}
	}
}
