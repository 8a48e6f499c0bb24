package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/adt"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// fakeResolver resolves the test types.
type fakeResolver struct {
	tuples map[string]*types.TupleType
	enums  map[string]*types.Enum
}

func (r *fakeResolver) TupleType(name string) (*types.TupleType, bool) {
	t, ok := r.tuples[name]
	return t, ok
}

func (r *fakeResolver) EnumType(name string) (*types.Enum, bool) {
	e, ok := r.enums[name]
	return e, ok
}

func testResolver() *fakeResolver {
	person := types.MustTupleType("CPerson", nil, []types.Attr{
		{Name: "name", Comp: types.Component{Mode: types.Own, Type: types.Varchar}},
		{Name: "age", Comp: types.Component{Mode: types.Own, Type: types.Int4}},
		{Name: "tags", Comp: types.Component{Mode: types.Own, Type: &types.Set{Elem: types.Component{Mode: types.Own, Type: types.Varchar}}}},
	})
	color := &types.Enum{Name: "CColor", Labels: []string{"r", "g", "b"}}
	return &fakeResolver{
		tuples: map[string]*types.TupleType{"CPerson": person},
		enums:  map[string]*types.Enum{"CColor": color},
	}
}

func roundtrip(t *testing.T, v value.Value) value.Value {
	t.Helper()
	res := testResolver()
	enc, err := Encode(nil, v)
	if err != nil {
		t.Fatalf("encode %s: %v", v, err)
	}
	out, err := DecodeOne(enc, res)
	if err != nil {
		t.Fatalf("decode %s: %v", v, err)
	}
	return out
}

func TestRoundtripScalars(t *testing.T) {
	vals := []value.Value{
		value.Null{},
		value.NewInt(42),
		value.Int{K: types.KInt1, V: -7},
		value.NewFloat(3.25),
		value.Float{K: types.KFloat4, V: -0.5},
		value.Bool(true),
		value.Bool(false),
		value.NewStr("hello \x00 world"),
		value.Str{K: types.KChar, V: "pad  "},
		value.Ref{OID: oid.OID(99), Type: "CPerson"},
	}
	for _, v := range vals {
		out := roundtrip(t, v)
		if !value.Equal(v, out) {
			t.Errorf("roundtrip %s -> %s", v, out)
		}
	}
}

func TestRoundtripKindsPreserved(t *testing.T) {
	out := roundtrip(t, value.Int{K: types.KInt2, V: 5})
	if out.(value.Int).K != types.KInt2 {
		t.Error("int width lost")
	}
	out = roundtrip(t, value.Str{K: types.KChar, V: "ab"})
	if out.(value.Str).K != types.KChar {
		t.Error("char kind lost")
	}
}

func TestRoundtripEnum(t *testing.T) {
	res := testResolver()
	e, _ := res.EnumType("CColor")
	v := value.EnumVal{Enum: e, Ord: 2}
	out := roundtrip(t, v)
	if ev, ok := out.(value.EnumVal); !ok || ev.Ord != 2 || ev.Enum.Name != "CColor" {
		t.Errorf("enum roundtrip: %s", out)
	}
}

func TestRoundtripADTs(t *testing.T) {
	d, err := adt.NewDate(1987, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	out := roundtrip(t, d)
	if !value.Equal(d, out) {
		t.Errorf("date roundtrip: %s", out)
	}
	c := adt.NewComplex(1.5, -2)
	out = roundtrip(t, c)
	if !value.Equal(c, out) {
		t.Errorf("complex roundtrip: %s", out)
	}
}

func TestRoundtripComposite(t *testing.T) {
	res := testResolver()
	person, _ := res.TupleType("CPerson")
	tv := value.NewTuple(person)
	tv.Set("name", value.NewStr("Ann"))
	tv.Set("age", value.NewInt(41))
	tv.Set("tags", &value.Set{Elems: []value.Value{value.NewStr("x"), value.NewStr("y")}})
	out := roundtrip(t, tv)
	if !value.Equal(tv, out) {
		t.Errorf("tuple roundtrip: %s", out)
	}
	arr := &value.Array{Fixed: true, Elems: []value.Value{value.NewInt(1), value.Null{}, value.NewInt(3)}}
	out = roundtrip(t, arr)
	if !value.Equal(arr, out) || !out.(*value.Array).Fixed {
		t.Errorf("array roundtrip: %s", out)
	}
}

func TestDecodeErrors(t *testing.T) {
	res := testResolver()
	if _, err := DecodeOne(nil, res); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := DecodeOne([]byte{200}, res); err == nil {
		t.Error("bad tag accepted")
	}
	// Unknown tuple type.
	ghost := types.MustTupleType("Ghost", nil, nil)
	enc, _ := Encode(nil, value.NewTuple(ghost))
	if _, err := DecodeOne(enc, res); err == nil {
		t.Error("unknown tuple type accepted")
	}
	// Trailing garbage.
	enc, _ = Encode(nil, value.NewInt(1))
	if _, err := DecodeOne(append(enc, 0), res); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Property: encode/decode roundtrips arbitrary int/string/bool trees.
func TestRoundtripProperty(t *testing.T) {
	res := testResolver()
	f := func(i int64, s string, b bool, xs []int64) bool {
		set := &value.Set{}
		for _, x := range xs {
			set.Elems = append(set.Elems, value.NewInt(x))
		}
		v := &value.Array{Elems: []value.Value{
			value.NewInt(i), value.NewStr(s), value.Bool(b), set,
		}}
		enc, err := Encode(nil, v)
		if err != nil {
			return false
		}
		out, err := DecodeOne(enc, res)
		if err != nil {
			return false
		}
		return value.Equal(v, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: key encoding preserves ordering for ints.
func TestKeyOrderIntProperty(t *testing.T) {
	f := func(a, b int32) bool {
		ka, _ := EncodeKey(value.NewInt(int64(a)))
		kb, _ := EncodeKey(value.NewInt(int64(b)))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: key encoding preserves ordering for floats and across
// int/float mixes (both use the float transform).
func TestKeyOrderFloatProperty(t *testing.T) {
	f := func(a, b float32) bool {
		ka, _ := EncodeKey(value.NewFloat(float64(a)))
		kb, _ := EncodeKey(value.NewFloat(float64(b)))
		cmp := bytes.Compare(ka, kb)
		switch {
		case float64(a) < float64(b):
			return cmp < 0
		case float64(a) > float64(b):
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Mixed: 2 < 2.5 < 3.
	k2, _ := EncodeKey(value.NewInt(2))
	k25, _ := EncodeKey(value.NewFloat(2.5))
	k3, _ := EncodeKey(value.NewInt(3))
	if !(bytes.Compare(k2, k25) < 0 && bytes.Compare(k25, k3) < 0) {
		t.Error("int/float key mixing broken")
	}
	// -0 = 0 = int 0, so all three share a key, between -1e-300 and 1e-300.
	kn, _ := EncodeKey(value.NewFloat(math.Copysign(0, -1)))
	kp, _ := EncodeKey(value.NewFloat(0))
	ki, _ := EncodeKey(value.NewInt(0))
	lo, _ := EncodeKey(value.NewFloat(-1e-300))
	hi, _ := EncodeKey(value.NewFloat(1e-300))
	if !bytes.Equal(kn, kp) || !bytes.Equal(kp, ki) || bytes.Compare(lo, kn) >= 0 || bytes.Compare(kn, hi) >= 0 {
		t.Errorf("zero keys: -0 %x, +0 %x, int 0 %x, between %x and %x", kn, kp, ki, lo, hi)
	}
}

// Property: key encoding preserves ordering for strings, including
// embedded zero bytes and prefix relationships.
func TestKeyOrderStringProperty(t *testing.T) {
	f := func(a, b string) bool {
		ka, _ := EncodeKey(value.NewStr(a))
		kb, _ := EncodeKey(value.NewStr(b))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Explicit nasty cases.
	pairs := [][2]string{
		{"a", "a\x00"},
		{"a\x00", "a\x00\x00"},
		{"a", "ab"},
		{"a\xff", "b"},
	}
	for _, p := range pairs {
		ka, _ := EncodeKey(value.NewStr(p[0]))
		kb, _ := EncodeKey(value.NewStr(p[1]))
		if bytes.Compare(ka, kb) >= 0 {
			t.Errorf("key order %q >= %q", p[0], p[1])
		}
	}
}

func TestKeyDates(t *testing.T) {
	d1, _ := adt.NewDate(1987, 12, 7)
	d2, _ := adt.NewDate(1988, 1, 1)
	k1, ok1 := EncodeKey(d1)
	k2, ok2 := EncodeKey(d2)
	if !ok1 || !ok2 || bytes.Compare(k1, k2) >= 0 {
		t.Error("date keys out of order")
	}
}

func TestUnindexable(t *testing.T) {
	if _, ok := EncodeKey(value.Null{}); ok {
		t.Error("null is indexable")
	}
	if _, ok := EncodeKey(&value.Set{}); ok {
		t.Error("set is indexable")
	}
	if _, ok := EncodeKey(value.Ref{OID: 1}); ok {
		t.Error("ref is indexable")
	}
	if _, ok := EncodeKey(adt.NewComplex(1, 2)); ok {
		t.Error("unordered ADT is indexable")
	}
}

func TestBoolAndEnumKeys(t *testing.T) {
	kf, _ := EncodeKey(value.Bool(false))
	kt, _ := EncodeKey(value.Bool(true))
	if bytes.Compare(kf, kt) >= 0 {
		t.Error("bool keys out of order")
	}
	e := &types.Enum{Name: "K", Labels: []string{"a", "b"}}
	k0, _ := EncodeKey(value.EnumVal{Enum: e, Ord: 0})
	k1, _ := EncodeKey(value.EnumVal{Enum: e, Ord: 1})
	if bytes.Compare(k0, k1) >= 0 {
		t.Error("enum keys out of order")
	}
}

// TestDecodeSharesWhatRepeats: a decoded reference to a type the
// resolver knows holds the resolver's name for it, not a copy, and one
// to an unknown type keeps the name it was written with; a decoded
// small int is the shared box and allocates nothing, and the bytes are
// the same either way.
func TestDecodeSharesWhatRepeats(t *testing.T) {
	res := testResolver()
	for _, name := range []string{"CPerson", "Elsewhere"} {
		enc, err := Encode(nil, value.Ref{OID: 7, Type: string([]byte(name))})
		if err != nil {
			t.Fatal(err)
		}
		v, err := DecodeOne(enc, res)
		if err != nil {
			t.Fatal(err)
		}
		r := v.(value.Ref)
		if r.OID != 7 || r.Type != name {
			t.Fatalf("decoded %v, want a reference to 7 of %s", r, name)
		}
		tt, known := res.TupleType(name)
		if shared := known && unsafe.StringData(r.Type) == unsafe.StringData(tt.Name); shared != known {
			t.Errorf("%s: the decoded name is the resolver's: %v, want %v", name, shared, known)
		}
		if again, _ := Encode(nil, r); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoded %x, want %x", name, again, enc)
		}
	}
	for _, k := range []types.Kind{types.KInt1, types.KInt2, types.KInt4} {
		enc, _ := Encode(nil, value.Int{K: k, V: 42})
		if n := testing.AllocsPerRun(10, func() { _, _ = DecodeOne(enc, res) }); n != 0 {
			t.Errorf("decoding a small %s allocated %.0f", k, n)
		}
		if v, _ := DecodeOne(enc, res); v != value.Value(value.Int{K: k, V: 42}) {
			t.Errorf("decoded %v of kind %s", v, v.Kind())
		}
	}
}
