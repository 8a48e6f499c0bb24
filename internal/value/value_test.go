package value

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/oid"
	"repro/internal/types"
)

func TestNull(t *testing.T) {
	if !IsNull(Null{}) || !IsNull(nil) {
		t.Error("IsNull wrong")
	}
	if IsNull(NewInt(0)) {
		t.Error("zero is not null")
	}
	if (Null{}).String() != "null" {
		t.Error("null display")
	}
}

func TestIntRange(t *testing.T) {
	cases := []struct {
		k    types.Kind
		v    int64
		want bool
	}{
		{types.KInt1, 127, true},
		{types.KInt1, 128, false},
		{types.KInt1, -128, true},
		{types.KInt1, -129, false},
		{types.KInt2, 32767, true},
		{types.KInt2, 32768, false},
		{types.KInt4, math.MaxInt32, true},
		{types.KInt4, math.MaxInt32 + 1, false},
	}
	for _, c := range cases {
		if got := (Int{K: c.k, V: c.v}).InRange(); got != c.want {
			t.Errorf("InRange(%v, %d) = %v", c.k, c.v, got)
		}
	}
}

func TestEqualScalars(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{NewInt(3), NewInt(3), true},
		{NewInt(3), NewInt(4), false},
		{NewInt(3), NewFloat(3), true}, // numeric widening
		{NewFloat(2.5), NewFloat(2.5), true},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{NewStr("a"), NewStr("a"), true},
		{NewStr("a"), NewStr("b"), false},
		{Str{K: types.KChar, V: "ab   "}, NewStr("ab"), true}, // char padding
		{Null{}, Null{}, true},
		{Null{}, NewInt(0), false},
		{NewInt(3), NewStr("3"), false},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualComposite(t *testing.T) {
	tt := types.MustTupleType("VT", nil, []types.Attr{
		{Name: "a", Comp: types.Component{Mode: types.Own, Type: types.Int4}},
		{Name: "b", Comp: types.Component{Mode: types.Own, Type: types.Varchar}},
	})
	t1 := NewTuple(tt)
	t1.Set("a", NewInt(1))
	t1.Set("b", NewStr("x"))
	t2 := NewTuple(tt)
	t2.Set("a", NewInt(1))
	t2.Set("b", NewStr("x"))
	if !Equal(t1, t2) {
		t.Error("equal tuples differ")
	}
	t2.Set("b", NewStr("y"))
	if Equal(t1, t2) {
		t.Error("different tuples equal")
	}
	// Sets: order-insensitive.
	s1 := &Set{Elems: []Value{NewInt(1), NewInt(2)}}
	s2 := &Set{Elems: []Value{NewInt(2), NewInt(1)}}
	if !Equal(s1, s2) {
		t.Error("set equality is order sensitive")
	}
	s3 := &Set{Elems: []Value{NewInt(1), NewInt(1)}}
	if Equal(s1, s3) {
		t.Error("multiset mismatch equal")
	}
	// Arrays: order-sensitive.
	a1 := &Array{Elems: []Value{NewInt(1), NewInt(2)}}
	a2 := &Array{Elems: []Value{NewInt(2), NewInt(1)}}
	if Equal(a1, a2) {
		t.Error("array equality is order insensitive")
	}
}

func TestRefIdentity(t *testing.T) {
	r1 := Ref{OID: 1, Type: "P"}
	r2 := Ref{OID: 1, Type: "Q"} // type tag is advisory
	r3 := Ref{OID: 2, Type: "P"}
	if !Equal(r1, r2) || Equal(r1, r3) {
		t.Error("ref equality is not identity")
	}
	o := Object{OID: 1}
	if !Equal(r1, o) || !Equal(o, r1) {
		t.Error("object/ref identity mismatch")
	}
	if id, ok := OIDOf(r1); !ok || id != 1 {
		t.Error("OIDOf ref")
	}
	if _, ok := OIDOf(Ref{}); ok {
		t.Error("OIDOf nil ref should fail")
	}
	if _, ok := OIDOf(NewInt(1)); ok {
		t.Error("OIDOf scalar should fail")
	}
	if !IsNilRef(Ref{}) || !IsNilRef(Null{}) || IsNilRef(r1) {
		t.Error("IsNilRef wrong")
	}
}

func TestCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		if c, err := Compare(a, b); err != nil || c >= 0 {
			t.Errorf("Compare(%s, %s) = %d, %v", a, b, c, err)
		}
		if c, err := Compare(b, a); err != nil || c <= 0 {
			t.Errorf("Compare(%s, %s) = %d, %v", b, a, c, err)
		}
	}
	lt(NewInt(1), NewInt(2))
	lt(NewInt(1), NewFloat(1.5))
	lt(NewFloat(-1), NewInt(0))
	lt(NewStr("a"), NewStr("b"))
	lt(Bool(false), Bool(true))
	e := &types.Enum{Name: "E", Labels: []string{"lo", "hi"}}
	lt(EnumVal{Enum: e, Ord: 0}, EnumVal{Enum: e, Ord: 1})
	if _, err := Compare(Null{}, NewInt(1)); err == nil {
		t.Error("comparison with null must error")
	}
	if _, err := Compare(NewInt(1), NewStr("1")); err == nil {
		t.Error("cross-type comparison must error")
	}
}

func TestCopyIsDeep(t *testing.T) {
	tt := types.MustTupleType("CP", nil, []types.Attr{
		{Name: "xs", Comp: types.Component{Mode: types.Own, Type: &types.Set{Elem: types.Component{Mode: types.Own, Type: types.Int4}}}},
	})
	orig := NewTuple(tt)
	orig.Set("xs", &Set{Elems: []Value{NewInt(1)}})
	cp := Copy(orig).(*Tuple)
	cp.Get("xs").(*Set).Elems[0] = NewInt(99)
	if orig.Get("xs").(*Set).Elems[0].(Int).V != 1 {
		t.Error("Copy is shallow")
	}
	// Refs are copied as identity (shared target).
	r := Ref{OID: 7, Type: "P"}
	if Copy(r).(Ref).OID != 7 {
		t.Error("ref copy lost identity")
	}
	if _, ok := Copy(nil).(Null); !ok {
		t.Error("copy of nil")
	}
}

func TestCopyObjectKeepsIdentity(t *testing.T) {
	o := Object{OID: oid.OID(3)}
	if got := Copy(o).(Object); got.OID != 3 {
		t.Error("object copy lost identity")
	}
}

// Property: Equal is reflexive for arbitrary scalar values.
func TestEqualReflexiveProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		vals := []Value{NewInt(i), NewFloat(fl), NewStr(s), Bool(b)}
		for _, v := range vals {
			if fv, isF := v.(Float); isF && math.IsNaN(fv.V) {
				continue
			}
			if !Equal(v, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and consistent with Equal for ints.
func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		c1, err1 := Compare(x, y)
		c2, err2 := Compare(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		if c1 != -c2 {
			return false
		}
		return (c1 == 0) == Equal(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Copy produces an Equal value.
func TestCopyEqualProperty(t *testing.T) {
	f := func(xs []int64, s string) bool {
		set := &Set{}
		for _, x := range xs {
			set.Elems = append(set.Elems, NewInt(x))
		}
		arr := &Array{Elems: []Value{NewStr(s), set}}
		return Equal(arr, Copy(arr))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortValues(t *testing.T) {
	vs := []Value{NewInt(3), NewInt(1), NewInt(2)}
	SortValues(vs)
	if vs[0].(Int).V != 1 || vs[2].(Int).V != 3 {
		t.Errorf("SortValues: %v", vs)
	}
}

func TestTupleGetSet(t *testing.T) {
	tt := types.MustTupleType("GS", nil, []types.Attr{
		{Name: "a", Comp: types.Component{Mode: types.Own, Type: types.Int4}},
	})
	tv := NewTuple(tt)
	if !IsNull(tv.Get("a")) {
		t.Error("new tuple fields must be null")
	}
	if !tv.Set("a", NewInt(5)) {
		t.Error("Set of existing attribute failed")
	}
	if tv.Set("zzz", NewInt(5)) {
		t.Error("Set of missing attribute succeeded")
	}
	if !IsNull(tv.Get("zzz")) {
		t.Error("Get of missing attribute must be null")
	}
	if tv.Get("a").(Int).V != 5 {
		t.Error("roundtrip failed")
	}
}

func TestDisplayForms(t *testing.T) {
	if NewStr("hi").String() != `"hi"` {
		t.Error("string display")
	}
	if (Ref{}).String() != "null" {
		t.Error("nil ref display")
	}
	s := &Set{Elems: []Value{NewInt(1), NewInt(2)}}
	if s.String() != "{1, 2}" {
		t.Errorf("set display: %s", s)
	}
	a := &Array{Elems: []Value{NewInt(1)}}
	if a.String() != "[1]" {
		t.Errorf("array display: %s", a)
	}
}

// TestSmallIntsShareBoxes: a small value of each int kind has one box,
// equal to the Int it stands for, which Box hands out without
// allocating; any other Int is boxed afresh.
func TestSmallIntsShareBoxes(t *testing.T) {
	for _, k := range []types.Kind{types.KInt1, types.KInt2, types.KInt4} {
		for _, v := range []int64{0, 1, 100, smallIntLimit - 1} {
			i := Int{K: k, V: v}
			b, ok := i.Shared()
			if !ok || b != Value(i) {
				t.Fatalf("%s %d: shared box %v, %v", k, v, b, ok)
			}
			if n := testing.AllocsPerRun(10, func() { sinkValue = i.Box() }); n != 0 {
				t.Errorf("%s %d: Box allocated %.0f", k, v, n)
			}
		}
		for _, v := range []int64{-1, smallIntLimit, 1 << 40} {
			i := Int{K: k, V: v}
			if _, ok := i.Shared(); ok {
				t.Errorf("%s %d has a shared box", k, v)
			}
			if i.Box() != Value(i) {
				t.Errorf("%s %d: Box is %v", k, v, i.Box())
			}
		}
	}
	if _, ok := (Int{K: types.KFloat8, V: 1}).Shared(); ok {
		t.Error("an Int of a non-int kind has a shared box")
	}
}

var sinkValue Value
