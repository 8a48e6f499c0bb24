// Package codec serializes EXTRA runtime values to bytes for dumps and
// the log, and encodes scalar values as order-preserving keys for
// the B+-tree access method.
//
// Tuple values are encoded against their schema type by name; decoding
// therefore needs a TypeResolver (the catalog) to map names back to type
// descriptors. ADT representations are encoded through a per-ADT codec
// registry — the analogue of an E dbclass knowing how to lay itself out
// on an EXODUS storage object.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/adt"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// TypeResolver resolves type names during decoding. The catalog
// implements it.
type TypeResolver interface {
	TupleType(name string) (*types.TupleType, bool)
	EnumType(name string) (*types.Enum, bool)
}

// Value encoding tags.
const (
	tNull byte = iota
	tInt
	tFloat
	tBool
	tStr
	tEnum
	tADT
	tTuple
	tSet
	tArray
	tRef
)

// ADTCodec serializes an ADT representation. Decode must not keep data:
// the buffer it decodes from may be reused.
type ADTCodec struct {
	Encode func(rep any) ([]byte, error)
	Decode func(data []byte) (any, error)
}

var (
	adtCodecsMu sync.RWMutex
	adtCodecs   = map[string]ADTCodec{}
)

// RegisterADTCodec installs the storage codec for an ADT by name.
// Registering a name twice replaces the codec.
func RegisterADTCodec(name string, c ADTCodec) {
	adtCodecsMu.Lock()
	defer adtCodecsMu.Unlock()
	adtCodecs[name] = c
}

func adtCodec(name string) (ADTCodec, bool) {
	adtCodecsMu.RLock()
	defer adtCodecsMu.RUnlock()
	c, ok := adtCodecs[name]
	return c, ok
}

func init() {
	RegisterADTCodec("Date", ADTCodec{
		Encode: func(rep any) ([]byte, error) {
			d, ok := rep.(adt.DateRep)
			if !ok {
				return nil, fmt.Errorf("Date codec: bad rep %T", rep)
			}
			b := make([]byte, 0, 12)
			b = binary.AppendVarint(b, int64(d.Year))
			b = binary.AppendVarint(b, int64(d.Month))
			b = binary.AppendVarint(b, int64(d.Day))
			return b, nil
		},
		Decode: func(data []byte) (any, error) {
			y, n1 := binary.Varint(data)
			m, n2 := binary.Varint(data[n1:])
			d, _ := binary.Varint(data[n1+n2:])
			return adt.DateRep{Year: int(y), Month: int(m), Day: int(d)}, nil
		},
	})
	RegisterADTCodec("Complex", ADTCodec{
		Encode: func(rep any) ([]byte, error) {
			c, ok := rep.(adt.ComplexRep)
			if !ok {
				return nil, fmt.Errorf("Complex codec: bad rep %T", rep)
			}
			b := make([]byte, 16)
			binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(c.Re))
			binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(c.Im))
			return b, nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 16 {
				return nil, fmt.Errorf("Complex codec: %d bytes", len(data))
			}
			return adt.ComplexRep{
				Re: math.Float64frombits(binary.LittleEndian.Uint64(data[0:8])),
				Im: math.Float64frombits(binary.LittleEndian.Uint64(data[8:16])),
			}, nil
		},
	})
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(data []byte) (string, int, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 || uint64(len(data)-w) < n {
		return "", 0, fmt.Errorf("truncated string")
	}
	return string(data[w : w+int(n)]), w + int(n), nil
}

// Encode appends the serialized form of v to b.
func Encode(b []byte, v value.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil, value.Null:
		return append(b, tNull), nil
	case value.Int:
		b = append(b, tInt, byte(x.K))
		return binary.AppendVarint(b, x.V), nil
	case value.Float:
		b = append(b, tFloat, byte(x.K))
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x.V))
		return append(b, buf[:]...), nil
	case value.Bool:
		if x {
			return append(b, tBool, 1), nil
		}
		return append(b, tBool, 0), nil
	case value.Str:
		b = append(b, tStr, byte(x.K))
		return appendString(b, x.V), nil
	case value.EnumVal:
		b = append(b, tEnum)
		b = appendString(b, x.Enum.Name)
		return binary.AppendVarint(b, int64(x.Ord)), nil
	case value.ADTVal:
		c, ok := adtCodec(x.ADT)
		if !ok {
			return nil, fmt.Errorf("no storage codec for ADT %s", x.ADT)
		}
		rep, err := c.Encode(x.Rep)
		if err != nil {
			return nil, err
		}
		b = append(b, tADT)
		b = appendString(b, x.ADT)
		b = binary.AppendUvarint(b, uint64(len(rep)))
		return append(b, rep...), nil
	case *value.Tuple:
		b = append(b, tTuple)
		b = appendString(b, x.Type.Name)
		b = binary.AppendUvarint(b, uint64(len(x.Fields)))
		var err error
		for _, f := range x.Fields {
			if b, err = Encode(b, f); err != nil {
				return nil, err
			}
		}
		return b, nil
	case *value.Set:
		b = append(b, tSet)
		b = binary.AppendUvarint(b, uint64(len(x.Elems)))
		var err error
		for _, e := range x.Elems {
			if b, err = Encode(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	case *value.Array:
		b = append(b, tArray)
		if x.Fixed {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(len(x.Elems)))
		var err error
		for _, e := range x.Elems {
			if b, err = Encode(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	case value.Ref:
		b = append(b, tRef)
		b = binary.AppendUvarint(b, uint64(x.OID))
		return appendString(b, x.Type), nil
	}
	return nil, fmt.Errorf("cannot encode %T", v)
}

// Decode reads one value from data, returning it and the bytes consumed.
func Decode(data []byte, res TypeResolver) (value.Value, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("empty input")
	}
	tag := data[0]
	p := 1
	switch tag {
	case tNull:
		return value.Null{}, p, nil
	case tInt:
		if len(data) < 2 {
			return nil, 0, fmt.Errorf("truncated int")
		}
		k := types.Kind(data[1])
		v, w := binary.Varint(data[2:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("bad int")
		}
		return value.Int{K: k, V: v}.Box(), 2 + w, nil
	case tFloat:
		if len(data) < 10 {
			return nil, 0, fmt.Errorf("truncated float")
		}
		k := types.Kind(data[1])
		bits := binary.LittleEndian.Uint64(data[2:10])
		return value.Float{K: k, V: math.Float64frombits(bits)}, 10, nil
	case tBool:
		if len(data) < 2 {
			return nil, 0, fmt.Errorf("truncated bool")
		}
		return value.Bool(data[1] == 1), 2, nil
	case tStr:
		if len(data) < 2 {
			return nil, 0, fmt.Errorf("truncated string")
		}
		k := types.Kind(data[1])
		s, n, err := readString(data[2:])
		if err != nil {
			return nil, 0, err
		}
		return value.Str{K: k, V: s}, 2 + n, nil
	case tEnum:
		name, n, err := readString(data[p:])
		if err != nil {
			return nil, 0, err
		}
		p += n
		ord, w := binary.Varint(data[p:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("bad enum ordinal")
		}
		et, ok := res.EnumType(name)
		if !ok {
			return nil, 0, fmt.Errorf("unknown enum type %s", name)
		}
		return value.EnumVal{Enum: et, Ord: int(ord)}, p + w, nil
	case tADT:
		name, n, err := readString(data[p:])
		if err != nil {
			return nil, 0, err
		}
		p += n
		ln, w := binary.Uvarint(data[p:])
		if w <= 0 || uint64(len(data)-p-w) < ln {
			return nil, 0, fmt.Errorf("truncated ADT payload")
		}
		p += w
		c, ok := adtCodec(name)
		if !ok {
			return nil, 0, fmt.Errorf("no storage codec for ADT %s", name)
		}
		rep, err := c.Decode(data[p : p+int(ln)])
		if err != nil {
			return nil, 0, err
		}
		return value.ADTVal{ADT: name, Rep: rep}, p + int(ln), nil
	case tTuple:
		name, n, err := readString(data[p:])
		if err != nil {
			return nil, 0, err
		}
		p += n
		cnt, w := binary.Uvarint(data[p:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("bad tuple arity")
		}
		p += w
		tt, ok := res.TupleType(name)
		if !ok {
			return nil, 0, fmt.Errorf("unknown tuple type %s", name)
		}
		tv := &value.Tuple{Type: tt, Fields: make([]value.Value, cnt)}
		for i := 0; i < int(cnt); i++ {
			f, n, err := Decode(data[p:], res)
			if err != nil {
				return nil, 0, err
			}
			tv.Fields[i] = f
			p += n
		}
		return tv, p, nil
	case tSet:
		cnt, w := binary.Uvarint(data[p:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("bad set size")
		}
		p += w
		sv := &value.Set{Elems: make([]value.Value, cnt)}
		for i := 0; i < int(cnt); i++ {
			e, n, err := Decode(data[p:], res)
			if err != nil {
				return nil, 0, err
			}
			sv.Elems[i] = e
			p += n
		}
		return sv, p, nil
	case tArray:
		if len(data) < 2 {
			return nil, 0, fmt.Errorf("truncated array")
		}
		fixed := data[1] == 1
		p = 2
		cnt, w := binary.Uvarint(data[p:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("bad array size")
		}
		p += w
		av := &value.Array{Elems: make([]value.Value, cnt), Fixed: fixed}
		for i := 0; i < int(cnt); i++ {
			e, n, err := Decode(data[p:], res)
			if err != nil {
				return nil, 0, err
			}
			av.Elems[i] = e
			p += n
		}
		return av, p, nil
	case tRef:
		id, w := binary.Uvarint(data[p:])
		if w <= 0 {
			return nil, 0, fmt.Errorf("bad ref")
		}
		p += w
		tn, n, err := readString(data[p:])
		if err != nil {
			return nil, 0, err
		}
		// The catalog's name, not the copy just read: every reference to
		// a type shares its one string. An unknown name keeps the copy.
		if res != nil {
			if tt, ok := res.TupleType(tn); ok {
				tn = tt.Name
			}
		}
		return value.Ref{OID: oid.OID(id), Type: tn}, p + n, nil
	}
	return nil, 0, fmt.Errorf("bad value tag %d", tag)
}

// DecodeOne decodes a value that must consume the whole input.
func DecodeOne(data []byte, res TypeResolver) (value.Value, error) {
	v, n, err := Decode(data, res)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("trailing %d bytes after value", len(data)-n)
	}
	return v, nil
}
