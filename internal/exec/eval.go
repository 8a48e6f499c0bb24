package exec

import (
	"fmt"

	"repro/internal/excess/sema"
	oidpkg "repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

const maxCallDepth = 64

// materializeExtent builds a set value of the extent's members (objects
// as Objects, elements as values) for whole-extent aggregation.
func (ex *State) materializeExtent(name string) (value.Value, error) {
	s := &value.Set{}
	r := ex.reader()
	if r.IsObjectExtent(name) {
		err := r.ScanExtent(name, func(id oidpkg.OID, tv *value.Tuple) error {
			s.Elems = append(s.Elems, value.Object{OID: id, Tuple: tv})
			return nil
		})
		return s, err
	}
	err := r.ScanElems(name, func(_ storage.RID, v value.Value) error {
		if r, isRef := v.(value.Ref); isRef {
			tv, ok, err := ex.derefGet(r.OID)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			s.Elems = append(s.Elems, value.Object{OID: r.OID, Tuple: tv})
			return nil
		}
		s.Elems = append(s.Elems, v)
		return nil
	})
	return s, err
}

// applyStep applies one step of a compiled path, mapping over
// collections (multi-valued path semantics: stepping through a set maps
// and flattens one level).
func (ex *State) applyStep(ctx *evalCtx, cur value.Value, st *stepProg) (value.Value, error) {
	if value.IsNull(cur) {
		return value.Null{}, nil
	}
	// An attribute step applied to a collection maps over its elements.
	if st.attr != "" {
		if elems, isColl := elemsOf(cur); isColl {
			out := &value.Set{}
			for _, e := range elems {
				r, err := ex.applyStep(ctx, e, st)
				if err != nil {
					return nil, err
				}
				if value.IsNull(r) {
					continue
				}
				if inner, isSet := elemsOf(r); isSet {
					out.Elems = append(out.Elems, inner...)
				} else {
					out.Elems = append(out.Elems, r)
				}
			}
			return out, nil
		}
	}
	nv, _, err := ex.stepOnce(ctx, cur, collOwner{}, st, false)
	return nv, err
}

// deobject converts runtime Objects to plain tuples for value contexts
// (ADT calls never see objects, but defensive conversion is cheap).
func deobject(v value.Value) value.Value {
	if o, ok := v.(value.Object); ok {
		return o.Tuple
	}
	return v
}

// logicShort reports whether the left operand alone decides an and/or
// (false short-circuits "and", true short-circuits "or").
func logicShort(op string, l value.Value) (value.Value, bool) {
	lb, lok := value.AsBool(l)
	if op == "and" {
		if lok && !lb {
			return value.Bool(false), true
		}
	} else if lok && lb {
		return value.Bool(true), true
	}
	return nil, false
}

// logicCombine combines both evaluated operands of an and/or under
// three-valued logic.
func logicCombine(op string, l, r value.Value) value.Value {
	lb, lok := value.AsBool(l)
	rb, rok := value.AsBool(r)
	if !lok || !rok {
		// Unknown combines as in three-valued logic where possible.
		if op == "and" {
			if (lok && !lb) || (rok && !rb) {
				return value.Bool(false)
			}
		} else if (lok && lb) || (rok && rb) {
			return value.Bool(true)
		}
		return value.Null{}
	}
	if op == "and" {
		return value.Bool(lb && rb)
	}
	return value.Bool(lb || rb)
}

// applyBinary applies a non-logic binary operator to already-evaluated
// operands. Only OpIdent touches the state (live identity needs the
// store), so every other class is safe to fold at compile time with a
// nil receiver.
func (ex *State) applyBinary(b *sema.Binary, l, r value.Value) (value.Value, error) {
	switch b.Class {
	case sema.OpIdent:
		lo, lok := ex.liveOID(l)
		ro, rok := ex.liveOID(r)
		lnull := !lok
		rnull := !rok
		same := false
		switch {
		case lnull && rnull:
			same = true
		case lnull != rnull:
			same = false
		default:
			same = lok && rok && lo == ro
		}
		if b.Op == "isnot" {
			return value.Bool(!same), nil
		}
		return value.Bool(same), nil
	case sema.OpCompare:
		return compareOp(b.Op, l, r)
	case sema.OpMember:
		return memberOp(b.Op, l, r)
	case sema.OpSet:
		return setOp(b.Op, l, r)
	case sema.OpArith:
		if value.IsNull(l) || value.IsNull(r) {
			return value.Null{}, nil
		}
		return arith(b.Op, l, r)
	case sema.OpADT:
		if value.IsNull(l) || value.IsNull(r) {
			return value.Null{}, nil
		}
		return b.Fn.Impl([]value.Value{deobject(l), deobject(r)})
	}
	return nil, fmt.Errorf("unhandled binary %s", b.Op)
}

// compareOp evaluates = != < <= > >= with null propagation.
func compareOp(op string, l, r value.Value) (value.Value, error) {
	if value.IsNull(l) || value.IsNull(r) {
		return value.Null{}, nil
	}
	switch op {
	case "=":
		return value.Bool(value.Equal(deobject(l), deobject(r))), nil
	case "!=":
		return value.Bool(!value.Equal(deobject(l), deobject(r))), nil
	}
	c, err := value.Compare(deobject(l), deobject(r))
	if err != nil {
		return nil, err
	}
	switch op {
	case "<":
		return value.Bool(c < 0), nil
	case "<=":
		return value.Bool(c <= 0), nil
	case ">":
		return value.Bool(c > 0), nil
	case ">=":
		return value.Bool(c >= 0), nil
	}
	return nil, fmt.Errorf("unhandled comparison %s", op)
}

// memberOp evaluates in/contains.
func memberOp(op string, l, r value.Value) (value.Value, error) {
	var elem value.Value
	var coll value.Value
	if op == "in" {
		elem, coll = l, r
	} else {
		elem, coll = r, l
	}
	if value.IsNull(elem) || value.IsNull(coll) {
		return value.Null{}, nil
	}
	elems, ok := elemsOf(coll)
	if !ok {
		return nil, fmt.Errorf("%s requires a collection", op)
	}
	for _, e := range elems {
		if value.Equal(e, elem) {
			return value.Bool(true), nil
		}
		// Membership of an object in a collection of refs (and vice
		// versa) compares identities.
		if eo, ok1 := value.OIDOf(e); ok1 {
			if vo, ok2 := value.OIDOf(elem); ok2 && eo == vo {
				return value.Bool(true), nil
			}
		}
	}
	return value.Bool(false), nil
}

// setOp evaluates union/intersect/diff.
func setOp(op string, l, r value.Value) (value.Value, error) {
	ls, lok := elemsOf(l)
	rs, rok := elemsOf(r)
	if !lok || !rok {
		if value.IsNull(l) || value.IsNull(r) {
			return value.Null{}, nil
		}
		return nil, fmt.Errorf("%s requires sets", op)
	}
	out := &value.Set{}
	switch op {
	case "union":
		out.Elems = append(out.Elems, ls...)
		for _, e := range rs {
			if !containsValue(out.Elems, e) {
				out.Elems = append(out.Elems, e)
			}
		}
	case "intersect":
		for _, e := range ls {
			if containsValue(rs, e) && !containsValue(out.Elems, e) {
				out.Elems = append(out.Elems, e)
			}
		}
	case "diff":
		for _, e := range ls {
			if !containsValue(rs, e) && !containsValue(out.Elems, e) {
				out.Elems = append(out.Elems, e)
			}
		}
	}
	return out, nil
}

type oidOf = oidpkg.OID

// liveOID extracts the identity of a value for is/isnot: a dangling
// reference (its object has been deleted) reads as null, the GEM-style
// referential behaviour.
func (ex *State) liveOID(v value.Value) (oidOf, bool) {
	id, ok := value.OIDOf(v)
	if !ok {
		return 0, false
	}
	if _, isRef := v.(value.Ref); isRef && !ex.reader().Exists(id) {
		return 0, false
	}
	return id, true
}

func containsValue(elems []value.Value, v value.Value) bool {
	for _, e := range elems {
		if value.Equal(e, v) {
			return true
		}
	}
	return false
}

// arith evaluates built-in arithmetic with numeric promotion and string
// concatenation for "+".
func arith(op string, l, r value.Value) (value.Value, error) {
	if ls, ok := l.(value.Str); ok {
		if rs, ok2 := r.(value.Str); ok2 && op == "+" {
			return value.NewStr(ls.V + rs.V), nil
		}
	}
	li, lInt := l.(value.Int)
	ri, rInt := r.(value.Int)
	if lInt && rInt {
		switch op {
		case "+":
			return value.NewInt(li.V + ri.V), nil
		case "-":
			return value.NewInt(li.V - ri.V), nil
		case "*":
			return value.NewInt(li.V * ri.V), nil
		case "/":
			if ri.V == 0 {
				return nil, fmt.Errorf("division by zero")
			}
			return value.NewInt(li.V / ri.V), nil
		case "%":
			if ri.V == 0 {
				return nil, fmt.Errorf("division by zero")
			}
			return value.NewInt(li.V % ri.V), nil
		}
	}
	lf, lok := value.AsFloat(l)
	rf, rok := value.AsFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("operator %s undefined for %s and %s", op, l, r)
	}
	switch op {
	case "+":
		return value.NewFloat(lf + rf), nil
	case "-":
		return value.NewFloat(lf - rf), nil
	case "*":
		return value.NewFloat(lf * rf), nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("division by zero")
		}
		return value.NewFloat(lf / rf), nil
	case "%":
		return nil, fmt.Errorf("%% requires integers")
	}
	return nil, fmt.Errorf("unhandled arithmetic %s", op)
}

// coerce shapes a computed value for storage in a component slot, with
// access to the store: when an object's value is copied into an own
// slot, its own-ref components are materialized as fresh embedded copies
// (composite value semantics — copying the parent copies the components;
// sharing them would violate exclusivity).
func (ex *State) coerce(v value.Value, comp types.Component) (value.Value, error) {
	out := coerceTo(v, comp)
	if _, wasObj := v.(value.Object); wasObj && comp.Mode == types.Own {
		return ex.ownCopy(comp, out)
	}
	return out, nil
}

// ownCopy recursively replaces own-ref references inside an owned value
// with embedded copies of their targets, so that storing the value
// creates fresh component objects instead of claiming the originals.
func (ex *State) ownCopy(comp types.Component, v value.Value) (value.Value, error) {
	if value.IsNull(v) {
		return value.Null{}, nil
	}
	switch comp.Mode {
	case types.OwnRef:
		if r, ok := v.(value.Ref); ok {
			tv, live, err := ex.reader().Get(r.OID)
			if err != nil {
				return nil, err
			}
			if !live {
				return value.Null{}, nil
			}
			return ex.ownCopy(types.Component{Mode: types.Own, Type: tv.Type}, value.Copy(tv))
		}
		return v, nil
	case types.RefTo:
		return v, nil
	}
	switch x := v.(type) {
	case *value.Tuple:
		for i, a := range x.Type.Attrs() {
			nv, err := ex.ownCopy(a.Comp, x.Fields[i])
			if err != nil {
				return nil, err
			}
			x.Fields[i] = nv
		}
	case *value.Set:
		if elem, ok := types.ElemOf(comp.Type); ok {
			for i, e := range x.Elems {
				nv, err := ex.ownCopy(elem, e)
				if err != nil {
					return nil, err
				}
				x.Elems[i] = nv
			}
		}
	case *value.Array:
		if elem, ok := types.ElemOf(comp.Type); ok {
			for i, e := range x.Elems {
				nv, err := ex.ownCopy(elem, e)
				if err != nil {
					return nil, err
				}
				x.Elems[i] = nv
			}
		}
	}
	return v, nil
}

// coerceTo shapes a computed value for storage in a component slot:
// objects become references for ref slots and copies for own slots.
func coerceTo(v value.Value, comp types.Component) value.Value {
	if value.IsNull(v) {
		return value.Null{}
	}
	if at, isArr := comp.Type.(*types.Array); isArr {
		if sv, isSet := v.(*value.Set); isSet {
			return &value.Array{Elems: sv.Elems, Fixed: at.Fixed}
		}
	}
	if o, isObj := v.(value.Object); isObj {
		switch comp.Mode {
		case types.RefTo, types.OwnRef:
			return o.Ref()
		default:
			if _, isRef := comp.Type.(*types.Ref); isRef {
				return o.Ref()
			}
			return value.Copy(o.Tuple)
		}
	}
	return v
}
