package codec

import (
	"encoding/binary"
	"math"

	"repro/internal/adt"
	"repro/internal/value"
)

// Key encoding: scalar values are mapped to byte strings whose
// bytes.Compare order matches value.Compare order, so the B+-tree can
// index any comparable attribute. Only values of one attribute (hence one
// type family) share an index, so no cross-type ordering is needed —
// except that ints and floats may mix through numeric widening, so both
// encode through the float transform when indexed as numeric.

// EncodeKey returns the order-preserving encoding of a scalar value, or
// false if the value is not indexable (nulls, tuples, collections, refs,
// and ADTs without an ordinal form).
func EncodeKey(v value.Value) ([]byte, bool) {
	switch x := v.(type) {
	case value.Bool:
		if x {
			return []byte{1}, true
		}
		return []byte{0}, true
	case value.Str:
		return encBytes([]byte(x.V)), true
	}
	w, ok := KeyWord(v)
	if !ok {
		return nil, false
	}
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, w)
	return b, true
}

// KeyWord returns the key encoding of a fixed-width scalar (a number, an
// enum, or an ADT with an ordinal form) as the integer whose big-endian
// bytes EncodeKey returns; false for any other value. Two such values
// share a key exactly when they share a word, and building one
// allocates nothing.
func KeyWord(v value.Value) (uint64, bool) {
	switch x := v.(type) {
	case value.Int:
		return encFloat(float64(x.V)), true
	case value.Float:
		return encFloat(x.V), true
	case value.EnumVal:
		return encInt(int64(x.Ord)), true
	case value.ADTVal:
		if k, ok := x.Rep.(interface{ KeyRep() int64 }); ok {
			return encInt(k.KeyRep()), true
		}
		if d, ok := x.Rep.(adt.DateRep); ok {
			return encInt(dateKey(d)), true
		}
	}
	return 0, false
}

func dateKey(d adt.DateRep) int64 {
	return int64(d.Year)*10000 + int64(d.Month)*100 + int64(d.Day)
}

// encInt encodes a signed integer so that unsigned order matches signed
// numeric order: the sign bit flipped.
func encInt(v int64) uint64 { return uint64(v) ^ (1 << 63) }

// encFloat encodes an IEEE double order-preservingly: positive values get
// their sign bit set; negative values are bit-complemented. -0 encodes as
// +0, which = calls it equal to.
func encFloat(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// encBytes escapes embedded zero bytes (0x00 -> 0x00 0xFF) and appends a
// 0x00 0x01 terminator so that prefixes order before their extensions and
// concatenated keys cannot collide.
func encBytes(s []byte) []byte {
	out := make([]byte, 0, len(s)+2)
	for _, c := range s {
		if c == 0x00 {
			out = append(out, 0x00, 0xFF)
		} else {
			out = append(out, c)
		}
	}
	return append(out, 0x00, 0x01)
}
