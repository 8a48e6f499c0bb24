package exec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/algebra"
	"repro/internal/codec"
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

func TestArith(t *testing.T) {
	i := func(v int64) value.Value { return value.NewInt(v) }
	f := func(v float64) value.Value { return value.NewFloat(v) }
	s := func(v string) value.Value { return value.NewStr(v) }
	cases := []struct {
		op   string
		l, r value.Value
		want string
	}{
		{"+", i(2), i(3), "5"},
		{"-", i(2), i(3), "-1"},
		{"*", i(4), i(3), "12"},
		{"/", i(7), i(2), "3"}, // integer division stays integral
		{"%", i(7), i(2), "1"},
		{"+", i(2), f(0.5), "2.5"},
		{"/", f(7), i(2), "3.5"},
		{"+", s("ab"), s("cd"), `"abcd"`},
	}
	for _, c := range cases {
		got, err := arith(c.op, c.l, c.r)
		if err != nil {
			t.Errorf("%s %s %s: %v", c.l, c.op, c.r, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("%s %s %s = %s, want %s", c.l, c.op, c.r, got, c.want)
		}
	}
	for _, c := range []struct {
		op   string
		l, r value.Value
	}{
		{"/", i(1), i(0)},
		{"%", i(1), i(0)},
		{"/", f(1), f(0)},
		{"%", f(1.5), f(2)},
		{"-", s("a"), s("b")},
	} {
		if _, err := arith(c.op, c.l, c.r); err == nil {
			t.Errorf("%s %s %s: expected error", c.l, c.op, c.r)
		}
	}
}

func TestFoldAgg(t *testing.T) {
	mk := func(op string) *sema.Agg { return &sema.Agg{Op: op, SetArg: true} }
	ints := []value.Value{value.NewInt(3), value.Null{}, value.NewInt(1), value.NewInt(2)}
	cases := []struct {
		op, want string
	}{
		{"count", "3"}, // nulls ignored
		{"sum", "6"},
		{"avg", "2"},
		{"min", "1"},
		{"max", "3"},
	}
	for _, c := range cases {
		got, err := foldAgg(mk(c.op), ints)
		if err != nil || got.String() != c.want {
			t.Errorf("%s = %s (%v), want %s", c.op, got, err, c.want)
		}
	}
	// Mixed int/float sums promote.
	mixed := []value.Value{value.NewInt(1), value.NewFloat(0.5)}
	if got, _ := foldAgg(mk("sum"), mixed); got.String() != "1.5" {
		t.Errorf("mixed sum = %s", got)
	}
	// Empty inputs.
	if got, _ := foldAgg(mk("count"), nil); got.String() != "0" {
		t.Error("empty count")
	}
	if got, _ := foldAgg(mk("sum"), nil); got.String() != "0" {
		t.Error("empty sum")
	}
	if got, _ := foldAgg(mk("avg"), nil); !value.IsNull(got) {
		t.Error("empty avg should be null")
	}
	if got, _ := foldAgg(mk("min"), nil); !value.IsNull(got) {
		t.Error("empty min should be null")
	}
	// Non-numeric sum errors.
	if _, err := foldAgg(mk("sum"), []value.Value{value.NewStr("x")}); err == nil {
		t.Error("sum over strings accepted")
	}
	// min/max over strings works.
	strsv := []value.Value{value.NewStr("b"), value.NewStr("a")}
	if got, _ := foldAgg(mk("min"), strsv); got.String() != `"a"` {
		t.Error("string min")
	}
}

// valueKey is the rendered grouping key groupKey must agree with:
// objects and refs by identity, null apart, everything else by display
// form.
func valueKey(v value.Value) string {
	if id, ok := value.OIDOf(v); ok {
		return "#" + id.String()
	}
	if value.IsNull(v) {
		return "\x00null"
	}
	return v.String()
}

func TestValueKeyAndHelpers(t *testing.T) {
	if valueKey(value.Null{}) != "\x00null" {
		t.Error("null key")
	}
	if !strings.HasPrefix(valueKey(value.Ref{OID: 5}), "#") {
		t.Error("ref key should use identity")
	}
	if valueKey(value.NewInt(7)) != "7" {
		t.Error("scalar key")
	}
	// elemsOf
	if _, ok := elemsOf(&value.Set{}); !ok {
		t.Error("set elems")
	}
	if _, ok := elemsOf(&value.Array{}); !ok {
		t.Error("array elems")
	}
	if _, ok := elemsOf(value.NewInt(1)); ok {
		t.Error("scalar elems")
	}
	// deobject
	tt := types.MustTupleType("U1", nil, nil)
	tv := value.NewTuple(tt)
	if deobject(value.Object{OID: 1, Tuple: tv}) != value.Value(tv) {
		t.Error("deobject")
	}
	if deobject(value.NewInt(1)).String() != "1" {
		t.Error("deobject scalar")
	}
}

// TestHashKeyEquivalence pins the comparable keys to rendered reference
// keys: on a corpus of edge values, two values share a grouping key
// exactly when their valueKey strings agree, and a join key exactly when
// their trimmed index encodings do.
func TestHashKeyEquivalence(t *testing.T) {
	tup := value.NewTuple(types.MustTupleType("T", nil, nil))
	color := &types.Enum{Name: "Color", Labels: []string{"red", "green"}}
	corpus := []value.Value{
		nil, value.Null{}, value.Ref{}, value.Ref{OID: 5}, value.Object{OID: 5, Tuple: tup}, value.Ref{OID: 6},
		value.NewInt(0), value.NewInt(3), value.NewInt(-5), value.NewInt(999999), value.NewInt(1000000),
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(3), value.NewFloat(-5),
		value.NewFloat(3.5), value.NewFloat(999999), value.NewFloat(1e6), value.NewFloat(1e-5),
		value.NewFloat(math.NaN()), value.NewFloat(-math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)),
		value.NewStr(""), value.NewStr("a"), value.NewStr("a  "), value.NewStr("a\x00"), value.NewStr("3"),
		value.Bool(true), value.Bool(false),
		value.EnumVal{Enum: color, Ord: 0}, value.EnumVal{Enum: color, Ord: 1},
		value.EnumVal{Enum: color, Ord: 7},
		value.ADTVal{ADT: "Date", Rep: adt.DateRep{Year: 2024, Month: 1, Day: 2}},
		value.ADTVal{ADT: "Date", Rep: adt.DateRep{Year: 2024, Month: 1, Day: 3}},
		&value.Set{Elems: []value.Value{value.NewInt(1)}},
	}
	oldJoinKey := func(v value.Value) (string, int) {
		v = deobject(v)
		if value.IsNull(v) {
			return "", keyNull
		}
		if s, ok := v.(value.Str); ok {
			return "s" + strings.TrimRight(s.V, " "), keyOK
		}
		if k, ok := codec.EncodeKey(v); ok {
			return "k" + string(k), keyOK
		}
		return "", keyUnhashable
	}
	var ex *State
	h := &algebra.HashJoinPath{}
	for _, a := range corpus {
		ja, sta := ex.joinKey(h, a)
		oa, osta := oldJoinKey(a)
		if sta != osta {
			t.Errorf("join key of %v: status %d, want %d", a, sta, osta)
		}
		for _, b := range corpus {
			if got, want := groupKey(a) == groupKey(b), valueKey(a) == valueKey(b); got != want {
				t.Errorf("group keys of %v and %v: equal %v, want %v", a, b, got, want)
			}
			jb, stb := ex.joinKey(h, b)
			ob, _ := oldJoinKey(b)
			if sta == keyOK && stb == keyOK && (ja == jb) != (oa == ob) {
				t.Errorf("join keys of %v and %v: equal %v, want %v", a, b, ja == jb, oa == ob)
			}
		}
	}
	// Dates, out-of-range enums and sets group by their rendered form.
	for _, v := range corpus[:len(corpus)-4] {
		if n := testing.AllocsPerRun(10, func() { groupKey(v); ex.joinKey(h, v) }); n != 0 {
			t.Errorf("keys of %v: %v allocations", v, n)
		}
	}
}

func TestCoerceTo(t *testing.T) {
	tt := types.MustTupleType("U2", nil, []types.Attr{
		{Name: "a", Comp: types.Component{Mode: types.Own, Type: types.Int4}},
	})
	obj := value.Object{OID: 9, Tuple: value.NewTuple(tt)}
	// Object -> ref slot: reference.
	out := coerceTo(obj, types.Component{Mode: types.RefTo, Type: tt})
	if r, ok := out.(value.Ref); !ok || r.OID != 9 {
		t.Errorf("ref slot: %s", out)
	}
	// Object -> own slot: copied tuple.
	out = coerceTo(obj, types.Component{Mode: types.Own, Type: tt})
	if cp, ok := out.(*value.Tuple); !ok || cp == obj.Tuple {
		t.Errorf("own slot: %T", out)
	}
	// Set -> array slot.
	set := &value.Set{Elems: []value.Value{value.NewInt(1)}}
	out = coerceTo(set, types.Component{Mode: types.Own, Type: &types.Array{
		Elem: types.Component{Mode: types.Own, Type: types.Int4}, Len: 1, Fixed: true}})
	if arr, ok := out.(*value.Array); !ok || !arr.Fixed || len(arr.Elems) != 1 {
		t.Errorf("array slot: %s", out)
	}
	// Null passes through.
	if !value.IsNull(coerceTo(value.Null{}, types.Component{Mode: types.Own, Type: types.Int4})) {
		t.Error("null slot")
	}
}

func TestStepsKey(t *testing.T) {
	steps := []sema.Step{
		{Attr: "kids"},
		{Index: &sema.Const{Val: value.NewInt(2)}},
		{Attr: "name"},
	}
	if got := stepsKey(steps); got != ".kids[2].name" {
		t.Errorf("stepsKey = %q", got)
	}
}

// TestStepFieldByPosition: resolveSteps resolves each attribute to its
// position in the tuple type the path statically reaches (through a
// ref), and a step reads by name when the runtime tuple is a subtype
// laid out differently.
func TestStepFieldByPosition(t *testing.T) {
	own := func(name string, typ types.Type) types.Attr {
		return types.Attr{Name: name, Comp: types.Component{Mode: types.Own, Type: typ}}
	}
	person := types.MustTupleType("P", nil, []types.Attr{own("name", types.Varchar)})
	student := types.MustTupleType("S", []types.Super{{Type: person}}, []types.Attr{own("gpa", types.Float8)})
	emp := types.MustTupleType("E", []types.Super{{Type: person}}, []types.Attr{own("salary", types.Int4)})
	studentEmp := types.MustTupleType("SE", []types.Super{{Type: emp}, {Type: student}}, nil)
	advisor := types.MustTupleType("A", nil, []types.Attr{
		{Name: "advisee", Comp: types.Component{Mode: types.RefTo, Type: student}},
	})
	steps := resolveSteps(advisor, []sema.Step{{Attr: "advisee"}, {Attr: "gpa"}}, nil)
	if steps[0].tt != advisor || steps[0].pos != 0 || steps[1].tt != student || steps[1].pos != 1 {
		t.Fatalf("resolved steps %+v", steps)
	}
	sv := value.NewTuple(student)
	sv.Set("gpa", value.NewFloat(3.5))
	sev := value.NewTuple(studentEmp)
	sev.Set("salary", value.NewInt(10)) // at the position Student gives gpa
	sev.Set("gpa", value.NewFloat(3.1))
	if got := steps[1].field(sv).String(); got != "3.5" {
		t.Errorf("Student gpa = %s", got)
	}
	if got := steps[1].field(sev).String(); got != "3.1" {
		t.Errorf("StudentEmp gpa through a ref Student = %s", got)
	}
	// An unknown static type reads every attribute by name.
	for _, st := range resolveSteps(nil, []sema.Step{{Attr: "advisee"}, {Attr: "gpa"}}, nil) {
		if st.tt != nil {
			t.Errorf("untyped path resolved %q to %s", st.attr, st.tt)
		}
	}
}
