// Package value implements the runtime representation of EXTRA data.
//
// Values mirror the type system: scalars for the base types, Tuple for
// tuple values, Set and Array for the collection constructors, Ref for
// references, and ADT for abstract-data-type instances. Null is a
// first-class value (GEM-style nulls): any attribute may be null, a null
// reference denotes "no object", and predicates over null are false.
//
// Own data has value semantics: assigning or copying an own attribute
// deep-copies it. References (ref and own ref) have identity semantics and
// are compared with is / isnot, not value equality.
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/oid"
	"repro/internal/types"
)

// Value is the interface implemented by all runtime values.
type Value interface {
	// Kind returns the structural kind of the value.
	Kind() types.Kind
	// String renders the value in EXCESS literal-ish syntax.
	String() string
}

// Null is the null value, usable at any type.
type Null struct{}

// Kind implements Value; Null reports KInvalid since it is typeless.
func (Null) Kind() types.Kind { return types.KInvalid }

// String implements Value.
func (Null) String() string { return "null" }

// IsNull reports whether v is the null value (or a nil interface, which
// is treated identically for robustness).
func IsNull(v Value) bool {
	if v == nil {
		return true
	}
	_, ok := v.(Null)
	return ok
}

// Int is an integer value of a given width kind (KInt1, KInt2 or KInt4).
type Int struct {
	K types.Kind
	V int64
}

// NewInt returns an int4 value.
func NewInt(v int64) Int { return Int{K: types.KInt4, V: v} }

// Kind implements Value.
func (i Int) Kind() types.Kind { return i.K }

// smallInts holds one shared box per int kind and value in
// [0, smallIntLimit): every age, count and floor a database stores
// repeats a handful of values, and a Value of such an Int read from a
// record or written by a statement is a pointer to one of these instead
// of a 16-byte heap object of its own. Values are immutable, so sharing
// a box changes nothing a reader can see.
const smallIntLimit = 1024

var smallInts = func() (t [3][smallIntLimit]Value) {
	for k := range t {
		for v := range t[k] {
			t[k][v] = Int{K: types.KInt1 + types.Kind(k), V: int64(v)}
		}
	}
	return t
}()

// Shared returns the shared box of i when it is a small value of an int
// kind (see smallInts), and false otherwise.
func (i Int) Shared() (Value, bool) {
	if i.V >= 0 && i.V < smallIntLimit && i.K >= types.KInt1 && i.K <= types.KInt4 {
		return smallInts[i.K-types.KInt1][i.V], true
	}
	return nil, false
}

// Box returns i as a Value: its shared box when it has one, a new box
// otherwise.
func (i Int) Box() Value {
	if b, ok := i.Shared(); ok {
		return b
	}
	return i
}

// String implements Value.
func (i Int) String() string { return strconv.FormatInt(i.V, 10) }

// InRange reports whether the value fits the declared width.
func (i Int) InRange() bool {
	switch i.K {
	case types.KInt1:
		return i.V >= math.MinInt8 && i.V <= math.MaxInt8
	case types.KInt2:
		return i.V >= math.MinInt16 && i.V <= math.MaxInt16
	default:
		return i.V >= math.MinInt32 && i.V <= math.MaxInt32
	}
}

// Float is a floating-point value of kind KFloat4 or KFloat8.
type Float struct {
	K types.Kind
	V float64
}

// NewFloat returns a float8 value.
func NewFloat(v float64) Float { return Float{K: types.KFloat8, V: v} }

// Kind implements Value.
func (f Float) Kind() types.Kind { return f.K }

// String implements Value.
func (f Float) String() string { return strconv.FormatFloat(f.V, 'g', -1, 64) }

// Bool is a boolean value.
type Bool bool

// Kind implements Value.
func (Bool) Kind() types.Kind { return types.KBool }

// String implements Value.
func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// Str is a character-string value; K distinguishes char[n] from varchar.
type Str struct {
	K types.Kind
	V string
}

// NewStr returns a varchar value.
func NewStr(s string) Str { return Str{K: types.KVarchar, V: s} }

// Kind implements Value.
func (s Str) Kind() types.Kind { return s.K }

// String implements Value.
func (s Str) String() string { return strconv.Quote(s.V) }

// EnumVal is a value of a named enumeration, stored by ordinal.
type EnumVal struct {
	Enum *types.Enum
	Ord  int
}

// Kind implements Value.
func (EnumVal) Kind() types.Kind { return types.KEnum }

// String implements Value.
func (e EnumVal) String() string {
	if e.Enum != nil && e.Ord >= 0 && e.Ord < len(e.Enum.Labels) {
		return e.Enum.Labels[e.Ord]
	}
	return fmt.Sprintf("enum(%d)", e.Ord)
}

// ADTVal is an instance of an abstract data type. Rep is the ADT's
// internal representation, owned and interpreted by the adt registry; the
// rest of the system treats it opaquely, exactly as EXCESS treats
// E-language dbclass state.
type ADTVal struct {
	ADT string // ADT name
	Rep any
}

// Kind implements Value.
func (ADTVal) Kind() types.Kind { return types.KADT }

// String implements Value.
func (a ADTVal) String() string {
	if s, ok := a.Rep.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%s(%v)", a.ADT, a.Rep)
}

// Tuple is a tuple value: the fields, aligned with the resolved attribute
// list of its type. A tuple that is a first-class object additionally has
// a non-nil OID recorded by the object store, not here: identity is a
// property of where the tuple lives, not of the value.
type Tuple struct {
	Type   *types.TupleType
	Fields []Value
}

// NewTuple returns a tuple of t with all fields null.
func NewTuple(t *types.TupleType) *Tuple {
	f := make([]Value, len(t.Attrs()))
	for i := range f {
		f[i] = Null{}
	}
	return &Tuple{Type: t, Fields: f}
}

// Kind implements Value.
func (*Tuple) Kind() types.Kind { return types.KTuple }

// String implements Value.
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteString(t.Type.Name)
	b.WriteByte('(')
	for i, a := range t.Type.Attrs() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteString("=")
		b.WriteString(t.Fields[i].String())
	}
	b.WriteByte(')')
	return b.String()
}

// Get returns the named field, or Null if absent.
func (t *Tuple) Get(name string) Value {
	if i := t.Type.AttrIndex(name); i >= 0 {
		return t.Fields[i]
	}
	return Null{}
}

// Set stores the named field; it reports whether the attribute exists.
func (t *Tuple) Set(name string, v Value) bool {
	if i := t.Type.AttrIndex(name); i >= 0 {
		t.Fields[i] = v
		return true
	}
	return false
}

// Set is a set value. Element order is not semantically meaningful but is
// kept stable for deterministic iteration and display.
type Set struct {
	Elems []Value
}

// Kind implements Value.
func (*Set) Kind() types.Kind { return types.KSet }

// String implements Value.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Array is a fixed- or variable-length array value. EXCESS arrays are
// 1-indexed at the language level; Elems is 0-indexed internally.
type Array struct {
	Elems []Value
	Fixed bool
}

// Kind implements Value.
func (*Array) Kind() types.Kind { return types.KArray }

// String implements Value.
func (a *Array) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range a.Elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Ref is a reference value: the OID of a first-class object plus the
// static type name of the reference for diagnostics. A Ref with a nil
// OID is a null reference; IsNull treats it as null.
type Ref struct {
	OID  oid.OID
	Type string // static target type name
}

// Kind implements Value.
func (Ref) Kind() types.Kind { return types.KRef }

// String implements Value.
func (r Ref) String() string {
	if r.OID.IsNil() {
		return "null"
	}
	return fmt.Sprintf("ref<%s>%s", r.Type, r.OID)
}

// IsNilRef reports whether v is a reference to no object (or Null).
func IsNilRef(v Value) bool {
	if IsNull(v) {
		return true
	}
	r, ok := v.(Ref)
	return ok && r.OID.IsNil()
}

// Copy deep-copies a value. Own data is duplicated structurally;
// references are copied as references (identity is shared, per the
// paper's ref semantics — copying a tuple with a ref attribute yields a
// second reference to the same object).
func Copy(v Value) Value {
	switch t := v.(type) {
	case *Tuple:
		n := &Tuple{Type: t.Type, Fields: make([]Value, len(t.Fields))}
		for i, f := range t.Fields {
			n.Fields[i] = Copy(f)
		}
		return n
	case *Set:
		n := &Set{Elems: make([]Value, len(t.Elems))}
		for i, e := range t.Elems {
			n.Elems[i] = Copy(e)
		}
		return n
	case *Array:
		n := &Array{Elems: make([]Value, len(t.Elems)), Fixed: t.Fixed}
		for i, e := range t.Elems {
			n.Elems[i] = Copy(e)
		}
		return n
	case ADTVal:
		if c, ok := t.Rep.(interface{ CopyRep() any }); ok {
			return ADTVal{ADT: t.ADT, Rep: c.CopyRep()}
		}
		return t
	case nil:
		return Null{}
	default:
		return v // scalars and refs are immutable
	}
}

// Equal reports deep value equality. Two refs are Equal iff they refer to
// the same object (this is the is operator's semantics); there is no
// recursive equality through references, matching the paper's departure
// from [Banc86].
func Equal(a, b Value) bool {
	if IsNull(a) || IsNull(b) {
		return IsNull(a) && IsNull(b)
	}
	switch x := a.(type) {
	case Int:
		switch y := b.(type) {
		case Int:
			return x.V == y.V
		case Float:
			return float64(x.V) == y.V
		}
	case Float:
		switch y := b.(type) {
		case Int:
			return x.V == float64(y.V)
		case Float:
			return x.V == y.V
		}
	case Bool:
		y, ok := b.(Bool)
		return ok && x == y
	case Str:
		y, ok := b.(Str)
		if !ok {
			return false
		}
		// char[n] values are blank-padded; comparison ignores trailing
		// blanks when either side is a fixed-length string (SQL CHAR
		// semantics, which GEM and QUEL share).
		if x.K == types.KChar || y.K == types.KChar {
			return strings.TrimRight(x.V, " ") == strings.TrimRight(y.V, " ")
		}
		return x.V == y.V
	case EnumVal:
		y, ok := b.(EnumVal)
		return ok && x.Enum.Equal(y.Enum) && x.Ord == y.Ord
	case Ref:
		switch y := b.(type) {
		case Ref:
			return x.OID == y.OID
		case Object:
			return x.OID == y.OID
		}
	case Object:
		switch y := b.(type) {
		case Ref:
			return x.OID == y.OID
		case Object:
			return x.OID == y.OID
		}
	case ADTVal:
		y, ok := b.(ADTVal)
		if !ok || x.ADT != y.ADT {
			return false
		}
		if e, ok := x.Rep.(interface{ EqualRep(any) bool }); ok {
			return e.EqualRep(y.Rep)
		}
		return x.Rep == y.Rep
	case *Tuple:
		y, ok := b.(*Tuple)
		if !ok || !x.Type.Equal(y.Type) || len(x.Fields) != len(y.Fields) {
			return false
		}
		for i := range x.Fields {
			if !Equal(x.Fields[i], y.Fields[i]) {
				return false
			}
		}
		return true
	case *Set:
		y, ok := b.(*Set)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		// Set equality is order-insensitive; O(n^2) matching with a used
		// mask is fine at the set sizes EXCESS manipulates in predicates.
		used := make([]bool, len(y.Elems))
	outer:
		for _, e := range x.Elems {
			for j, f := range y.Elems {
				if !used[j] && Equal(e, f) {
					used[j] = true
					continue outer
				}
			}
			return false
		}
		return true
	case *Array:
		y, ok := b.(*Array)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !Equal(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare orders two scalar values: -1, 0 or +1. It returns an error for
// non-comparable pairs (including any null operand, whose comparisons are
// unknown and treated as false by predicate evaluation).
func Compare(a, b Value) (int, error) {
	if IsNull(a) || IsNull(b) {
		return 0, fmt.Errorf("comparison with null")
	}
	switch x := a.(type) {
	case Int:
		switch y := b.(type) {
		case Int:
			return cmpInt(x.V, y.V), nil
		case Float:
			return cmpFloat(float64(x.V), y.V), nil
		}
	case Float:
		switch y := b.(type) {
		case Int:
			return cmpFloat(x.V, float64(y.V)), nil
		case Float:
			return cmpFloat(x.V, y.V), nil
		}
	case Str:
		if y, ok := b.(Str); ok {
			xv, yv := x.V, y.V
			if x.K == types.KChar || y.K == types.KChar {
				xv = strings.TrimRight(xv, " ")
				yv = strings.TrimRight(yv, " ")
			}
			return strings.Compare(xv, yv), nil
		}
	case Bool:
		if y, ok := b.(Bool); ok {
			return cmpBool(bool(x), bool(y)), nil
		}
	case EnumVal:
		if y, ok := b.(EnumVal); ok && x.Enum.Equal(y.Enum) {
			return cmpInt(int64(x.Ord), int64(y.Ord)), nil
		}
	case ADTVal:
		if y, ok := b.(ADTVal); ok && x.ADT == y.ADT {
			if c, ok := x.Rep.(interface{ CompareRep(any) int }); ok {
				return c.CompareRep(y.Rep), nil
			}
		}
	}
	return 0, fmt.Errorf("cannot compare %s and %s", a, b)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
}

// AsFloat extracts a numeric value as float64.
func AsFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case Int:
		return float64(x.V), true
	case Float:
		return x.V, true
	}
	return 0, false
}

// AsInt extracts an integer value.
func AsInt(v Value) (int64, bool) {
	if x, ok := v.(Int); ok {
		return x.V, true
	}
	return 0, false
}

// AsString extracts a string value.
func AsString(v Value) (string, bool) {
	if x, ok := v.(Str); ok {
		return x.V, true
	}
	return "", false
}

// AsBool extracts a boolean value.
func AsBool(v Value) (bool, bool) {
	if x, ok := v.(Bool); ok {
		return bool(x), true
	}
	return false, false
}

// SortValues sorts a slice of scalar values in ascending order; values
// that fail comparison keep their relative order. Used for deterministic
// display of query results and by ordered aggregates.
func SortValues(vs []Value) {
	sort.SliceStable(vs, func(i, j int) bool {
		c, err := Compare(vs[i], vs[j])
		return err == nil && c < 0
	})
}

// ZeroFor returns the natural default for a type: null for everything, as
// EXTRA initializes unset attributes to null.
func ZeroFor(t types.Type) Value { return Null{} }
