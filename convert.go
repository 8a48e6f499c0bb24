package extra

import (
	"fmt"

	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// Attrs is a Go-side attribute map for bulk loading: keys are attribute
// names, values are Go natives (int, int64, float64, string, bool), Obj
// references, []any collections, or nested Attrs for embedded tuples.
type Attrs map[string]any

// Obj is an opaque handle to a stored object, returned by Insert and
// usable as a reference value in later Attrs.
type Obj struct {
	id  oid.OID
	typ string
}

// Valid reports whether the handle refers to an object.
func (o Obj) Valid() bool { return !o.id.IsNil() }

// String renders the handle for diagnostics.
func (o Obj) String() string { return fmt.Sprintf("%s<%s>", o.id, o.typ) }

// Insert bulk-loads one object into an object-set extent without going
// through the EXCESS parser — the API a loader utility would use. Nested
// own and own-ref components may be given as Attrs / []any trees; the
// store applies the usual internalization (ownership, padding, range
// checks). Like any mutation it serializes on the write lock and
// publishes a snapshot, so concurrent readers see each inserted object
// atomically.
//
// extra:acquires db.wmu.W
func (db *DB) Insert(extent string, attrs Attrs) (Obj, error) {
	v, ok := db.Catalog().Var(extent)
	if !ok || !v.IsObjectSet() {
		return Obj{}, fmt.Errorf("%s is not an object-set extent", extent)
	}
	elem, _ := v.ElemType()
	tt := elem.Type.(*types.TupleType)
	tv, err := db.tupleFromAttrs(tt, attrs)
	if err != nil {
		return Obj{}, err
	}
	var id oid.OID
	err = db.apiWrite()(func() (err error) {
		id, err = db.store.Insert(extent, tv)
		return err
	})
	if err != nil {
		return Obj{}, err
	}
	return Obj{id: id, typ: tt.Name}, nil
}

// SetRef stores a reference attribute on an object (bulk wiring of
// relationships without EXCESS), through the Go API's write path. The
// attribute must be a reference, and target, unless it is the zero Obj
// (null), a live object of the handle's type, which is the attribute's
// target type or a subtype of it.
//
// extra:acquires db.wmu.W
func (db *DB) SetRef(obj Obj, attr string, target Obj) error {
	return db.apiWrite()(func() error {
		tv, ok, err := db.store.Get(obj.id)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("object %s no longer exists", obj)
		}
		a, ok := tv.Type.Attr(attr)
		if !ok {
			return fmt.Errorf("type %s has no attribute %s", tv.Type.Name, attr)
		}
		want, isTuple := a.Comp.Type.(*types.TupleType)
		if a.Comp.Mode == types.Own || !isTuple {
			return fmt.Errorf("attribute %s of %s is not a reference", attr, tv.Type.Name)
		}
		var nv value.Value = value.Null{}
		if target.Valid() {
			to, live, err := db.store.Get(target.id)
			if err != nil {
				return err
			}
			switch {
			case !live:
				return fmt.Errorf("SetRef target %s does not exist", target.id)
			case to.Type.Name != target.typ:
				return fmt.Errorf("SetRef target %s is a %s, not its handle's type", target.id, to.Type.Name)
			case !to.Type.IsSubtypeOf(want):
				return fmt.Errorf("attribute %s of %s refers to %s, not %s", attr, tv.Type.Name, want.Name, to.Type.Name)
			}
			nv = value.Ref{OID: target.id, Type: to.Type.Name}
		}
		tv.Set(attr, nv)
		return db.store.Update(obj.id, tv)
	})
}

// tupleFromAttrs converts a Go attribute map into a typed tuple value.
func (db *DB) tupleFromAttrs(tt *types.TupleType, attrs Attrs) (*value.Tuple, error) {
	tv := value.NewTuple(tt)
	for name, raw := range attrs {
		a, ok := tt.Attr(name)
		if !ok {
			return nil, fmt.Errorf("type %s has no attribute %s", tt.Name, name)
		}
		vv, err := db.valueFromGo(a.Comp, raw)
		if err != nil {
			return nil, fmt.Errorf("attribute %s: %w", name, err)
		}
		tv.Set(name, vv)
	}
	return tv, nil
}

// valueFromGo converts one Go native into an EXTRA value for a slot.
func (db *DB) valueFromGo(comp types.Component, raw any) (value.Value, error) {
	switch x := raw.(type) {
	case nil:
		return value.Null{}, nil
	case int:
		return numFor(comp.Type, float64(x), int64(x), true), nil
	case int64:
		return numFor(comp.Type, float64(x), x, true), nil
	case float64:
		return numFor(comp.Type, x, int64(x), false), nil
	case string:
		return value.NewStr(x), nil
	case bool:
		return value.Bool(x), nil
	case Obj:
		return value.Ref{OID: x.id, Type: x.typ}, nil
	case value.Value:
		return x, nil
	case Attrs:
		ett, ok := elemTuple(comp)
		if !ok {
			return nil, fmt.Errorf("nested attrs need a tuple-typed slot, have %s", comp.Type)
		}
		return db.tupleFromAttrs(ett, x)
	case []any:
		elem, ok := types.ElemOf(comp.Type)
		if !ok {
			return nil, fmt.Errorf("slice needs a collection slot, have %s", comp.Type)
		}
		out := make([]value.Value, 0, len(x))
		for _, e := range x {
			ev, err := db.valueFromGo(elem, e)
			if err != nil {
				return nil, err
			}
			out = append(out, ev)
		}
		if at, isArr := comp.Type.(*types.Array); isArr {
			return &value.Array{Elems: out, Fixed: at.Fixed}, nil
		}
		return &value.Set{Elems: out}, nil
	}
	return nil, fmt.Errorf("unsupported Go value %T", raw)
}

func elemTuple(comp types.Component) (*types.TupleType, bool) {
	if tt, ok := comp.Type.(*types.TupleType); ok {
		return tt, true
	}
	return nil, false
}

// numFor shapes a Go number for the declared slot type.
func numFor(t types.Type, f float64, i int64, isInt bool) value.Value {
	switch t.Kind() {
	case types.KFloat4, types.KFloat8:
		return value.NewFloat(f)
	case types.KInt1, types.KInt2, types.KInt4:
		return value.Int{K: t.Kind(), V: i}
	}
	if isInt {
		return value.NewInt(i)
	}
	return value.NewFloat(f)
}
