package sema

import (
	"fmt"
	"strings"

	"repro/internal/excess/ast"
	"repro/internal/types"
	"repro/internal/value"
)

// builtin aggregate operators.
var builtinAggs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// BindExpr binds and type-checks an expression (the exported entry used
// by the executor for function bodies).
func (c *Checker) BindExpr(e ast.Expr) (Expr, error) { return c.bindExpr(e) }

// Literal binds an int, float or string literal to its constant: the
// literals the session may lift into typed parameter slots, which
// therefore check, key an index and evaluate exactly as the constant
// does.
func Literal(e ast.Expr) (*Const, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return &Const{Val: value.NewInt(x.V), T: types.Int4}, true
	case *ast.FloatLit:
		return &Const{Val: value.NewFloat(x.V), T: types.Float8}, true
	case *ast.StrLit:
		return &Const{Val: value.NewStr(x.V), T: types.Varchar}, true
	}
	return nil, false
}

// bindExpr binds and type-checks an expression.
func (c *Checker) bindExpr(e ast.Expr) (Expr, error) {
	if k, ok := Literal(e); ok {
		return k, nil
	}
	switch x := e.(type) {
	case *ast.BoolLit:
		return &Const{Val: value.Bool(x.V), T: types.Boolean}, nil
	case *ast.NullLit:
		return &Const{Val: value.Null{}, T: nil}, nil
	case *ast.Placeholder:
		// A prepared-statement parameter binds like a function parameter
		// in slot N-1 of the frame; the executor reads it from the frame
		// by position. Unless the frame types it, its type starts unknown
		// and is back-filled from the surrounding comparison or arithmetic
		// context (inferPlaceholder).
		c.notePlaceholder(x.N)
		name := fmt.Sprintf("$%d", x.N)
		if p, ok := c.param(name); ok {
			return p, nil
		}
		return &ParamRef{Name: name, Slot: x.N - 1}, nil
	case *ast.Path:
		return c.bindPath(x)
	case *ast.Unary:
		return c.bindUnary(x)
	case *ast.Binary:
		return c.bindBinary(x)
	case *ast.Call:
		return c.bindCall(x)
	case *ast.Aggregate:
		return c.bindAggregate(x)
	case *ast.SetLit:
		return c.bindSetLit(x)
	case *ast.TupleLit:
		return c.bindTupleLit(x)
	}
	return nil, ast.Errorf(e, "unhandled expression %T", e)
}

// enumConst resolves a bare identifier as an enum label when a unique
// enum declares it; used as a fallback for path roots.
func (c *Checker) enumConst(name string) (Expr, bool) {
	var found Expr
	n := 0
	for _, en := range c.enumTypes() {
		if ord := en.Ordinal(name); ord >= 0 {
			found = &Const{Val: value.EnumVal{Enum: en, Ord: ord}, T: en}
			n++
		}
	}
	if n == 1 {
		return found, true
	}
	return nil, false
}

func (c *Checker) enumTypes() []*types.Enum {
	var out []*types.Enum
	for _, name := range c.cat.EnumNames() {
		if e, ok := c.cat.EnumType(name); ok {
			out = append(out, e)
		}
	}
	return out
}

// effectiveTuple returns the schema type reachable from a component for
// attribute access, following one implicit dereference of ref / own ref.
func effectiveTuple(t types.Type) (*types.TupleType, bool) {
	switch tt := t.(type) {
	case *types.TupleType:
		return tt, true
	case *types.Ref:
		return tt.Target, true
	}
	return nil, false
}

// bindPath binds a surface path: resolves the root, then applies steps
// with implicit dereferencing, multi-valued traversal of collections,
// array indexing, and derived attributes (EXCESS functions and unary ADT
// member functions reachable by name).
func (c *Checker) bindPath(p *ast.Path) (Expr, error) {
	base, err := c.bindRoot(p)
	if err != nil {
		return nil, err
	}
	return c.applySteps(p, base, p.Steps)
}

// bindRoot resolves the root identifier of a path.
func (c *Checker) bindRoot(p *ast.Path) (Expr, error) {
	name := p.Root
	// 1. Function/procedure parameters.
	if pr, ok := c.param(name); ok {
		return c.rootIndex(p, pr)
	}
	// 2. Already-bound range variables.
	if v, ok := c.vars[name]; ok {
		return c.rootIndex(p, &VarRef{Var: v})
	}
	// 3. Session range declarations, bound on first use.
	if v, err := c.bindSessionVar(name); err != nil {
		return nil, err
	} else if v != nil {
		return c.rootIndex(p, &VarRef{Var: v})
	}
	// 4. Database variables.
	if dv, ok := c.cat.Var(name); ok {
		if elem, isSet := dv.ElemType(); isSet && dv.Comp.Type.Kind() == types.KSet {
			if c.inAgg {
				// Inside an aggregate argument an extent denotes the whole
				// collection: avg(Employees.salary) folds over everyone.
				el := c.bindElem(elem)
				return &ExtentSet{Name: name, T: &types.Set{Elem: el}}, nil
			}
			// Outside aggregates an extent mention introduces (or reuses)
			// the statement's implicit variable over that extent.
			return c.rootIndex(p, &VarRef{Var: c.implicitVar(name, elem)})
		}
		// Singleton and array database variables read their stored value.
		return c.rootIndex(p, &DBVarRead{Name: name, T: dv.Comp.Type})
	}
	// 5. A unique enum label used as a constant.
	if e, ok := c.enumConst(name); ok && p.RootIndex == nil {
		return e, nil
	}
	return nil, ast.Errorf(p, "unknown name %s (bound variables: %s)", name, strings.Join(c.sortedVarNames(), ", "))
}

// rootIndex applies the optional root index ("TopTen[1]").
func (c *Checker) rootIndex(p *ast.Path, base Expr) (Expr, error) {
	if p.RootIndex == nil {
		return base, nil
	}
	idx, err := c.bindExpr(p.RootIndex)
	if err != nil {
		return nil, err
	}
	if idx.Type() != nil && !idx.Type().Kind().IsInteger() {
		return nil, ast.Errorf(p, "array index must be an integer")
	}
	at, ok := base.Type().(*types.Array)
	if !ok {
		return nil, ast.Errorf(p, "%s is not an array", p.Root)
	}
	return &PathExpr{
		Base:  base,
		Steps: []Step{{Index: idx}},
		T:     at.Elem.Type,
	}, nil
}

// applySteps walks the remaining path steps, computing the result type
// and multiplicity.
func (c *Checker) applySteps(p *ast.Path, base Expr, steps []ast.PathStep) (Expr, error) {
	cur := base.Type()
	multi := base.Multi()
	pe := &PathExpr{Base: base}
	if b, ok := base.(*PathExpr); ok {
		pe = &PathExpr{Base: b.Base, Steps: append([]Step(nil), b.Steps...)}
		cur = b.T
		multi = b.IsM
	}
	for si, st := range steps {
		// Step into collections: the path maps over elements.
		for {
			if elem, isColl := types.ElemOf(cur); isColl {
				multi = true
				cur = elem.Type
				if r, isRef := cur.(*types.Ref); isRef {
					cur = r.Target
				}
				continue
			}
			break
		}
		tt, ok := effectiveTuple(cur)
		if !ok {
			// ADT member function reachable as a derived attribute:
			// "d.year" for year(Date).
			if at, isADT := cur.(*types.ADT); isADT {
				fn, err := c.cat.ADTs().ResolveFunc(at.Name, st.Name, []types.Type{at})
				if err == nil {
					arg := c.finishPath(pe, cur, multi)
					call := &ADTCall{Fn: fn, Args: []Expr{arg}}
					return c.applyStepsToCall(p, call, steps[si:], st)
				}
			}
			return nil, ast.Errorf(p, "cannot access attribute %s of %s", st.Name, cur)
		}
		a, found := tt.Attr(st.Name)
		if !found {
			// Derived attribute via EXCESS function: "E.Wealth".
			if fn, okf := c.cat.FindFunction(st.Name, tt); okf && len(fn.Params) == 1 {
				arg := c.finishPath(pe, cur, multi)
				call := &FuncCall{Fn: fn, Name: st.Name, T: fn.Returns.Type}
				call.Args = []Expr{arg}
				return c.applyStepsToCall(p, call, steps[si:], st)
			}
			return nil, ast.Errorf(p, "type %s has no attribute %s", tt.Name, st.Name)
		}
		pe.Steps = append(pe.Steps, Step{Attr: st.Name})
		cur = a.Comp.Type
		if r, isRef := cur.(*types.Ref); isRef && a.Comp.Mode == types.Own {
			cur = r.Target
		}
		if a.Comp.Mode != types.Own {
			// ref / own ref attributes hold references; the static type of
			// the path value is the target schema type (dereferenced on
			// access).
			if tt2, isT := a.Comp.Type.(*types.TupleType); isT {
				cur = tt2
			}
		}
		if st.Index != nil {
			at, isArr := cur.(*types.Array)
			if !isArr {
				return nil, ast.Errorf(p, "%s is not an array", st.Name)
			}
			idx, err := c.bindExpr(st.Index)
			if err != nil {
				return nil, err
			}
			pe.Steps = append(pe.Steps, Step{Index: idx})
			cur = at.Elem.Type
			if r, isRef := cur.(*types.Ref); isRef {
				cur = r.Target
			}
		}
	}
	return c.finishPath(pe, cur, multi), nil
}

// applyStepsToCall handles path steps that continue after a derived
// attribute turned the path into a call. The step that produced the call
// is skipped; the rest apply to the call result.
func (c *Checker) applyStepsToCall(p *ast.Path, call Expr, rest []ast.PathStep, produced ast.PathStep) (Expr, error) {
	remaining := rest[1:]
	if produced.Index != nil {
		return nil, ast.Errorf(p, "cannot index a derived attribute result directly")
	}
	if len(remaining) == 0 {
		return call, nil
	}
	return c.applySteps(p, call, remaining)
}

// finishPath collapses a PathExpr with no steps to its base.
func (c *Checker) finishPath(pe *PathExpr, t types.Type, multi bool) Expr {
	if len(pe.Steps) == 0 {
		return pe.Base
	}
	pe.T = t
	pe.IsM = multi
	if multi {
		pe.T = &types.Set{Elem: types.Component{Mode: types.Own, Type: t}}
	}
	return pe
}

func (c *Checker) bindUnary(x *ast.Unary) (Expr, error) {
	sub, err := c.bindExpr(x.X)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "not":
		if sub.Type() != nil && sub.Type().Kind() != types.KBool {
			return nil, ast.Errorf(x, "not requires a boolean, got %s", sub.Type())
		}
		return &Unary{Op: "not", X: sub, T: types.Boolean}, nil
	case "-":
		t := sub.Type()
		if t != nil && !t.Kind().IsNumeric() {
			return nil, ast.Errorf(x, "unary - requires a number, got %s", t)
		}
		return &Unary{Op: "-", X: sub, T: t}, nil
	}
	// Registered ADT prefix operator.
	if sub.Type() != nil {
		fn, err := c.cat.ADTs().ResolveOperator(x.Op, []types.Type{sub.Type()})
		if err != nil {
			return nil, ast.Errorf(x, "%s", err)
		}
		return &Unary{Op: x.Op, X: sub, Fn: fn, T: fn.Result}, nil
	}
	return nil, ast.Errorf(x, "cannot apply %s to null", x.Op)
}

func (c *Checker) bindBinary(x *ast.Binary) (Expr, error) {
	l, err := c.bindExpr(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.bindExpr(x.R)
	if err != nil {
		return nil, err
	}
	// Untyped placeholders adopt the type of the other operand, so
	// "E.salary > $1" checks as an int comparison and Prepare learns the
	// slot type.
	c.inferPlaceholder(l, r.Type())
	c.inferPlaceholder(r, l.Type())
	lt, rt := l.Type(), r.Type()
	mk := func(cl OpClass, t types.Type) *Binary {
		return &Binary{Op: x.Op, Class: cl, L: l, R: r, T: t}
	}
	switch x.Op {
	case "and", "or":
		for _, t := range []types.Type{lt, rt} {
			if t != nil && t.Kind() != types.KBool {
				return nil, ast.Errorf(x, "%s requires booleans, got %s", x.Op, t)
			}
		}
		return mk(OpLogic, types.Boolean), nil
	case "is", "isnot":
		for _, e := range []Expr{l, r} {
			if e.Type() == nil {
				continue // "E.mgr is null" style tests
			}
			if _, ok := effectiveTuple(e.Type()); !ok {
				return nil, ast.Errorf(x, "%s applies to objects and references, got %s", x.Op, e.Type())
			}
		}
		return mk(OpIdent, types.Boolean), nil
	case "=", "!=", "<", "<=", ">", ">=":
		if lt != nil && rt != nil {
			if isRefLike(lt) || isRefLike(rt) {
				return nil, ast.Errorf(x, "references are compared with is / isnot, not %s", x.Op)
			}
			if x.Op == "=" || x.Op == "!=" {
				// Equality extends to sets, arrays and embedded tuples
				// (deep value equality, not identity).
				if !types.Comparable(lt, rt) && !lt.Equal(rt) && !(lt.Kind() == rt.Kind() && types.IsCollection(lt)) {
					return nil, ast.Errorf(x, "cannot compare %s and %s", lt, rt)
				}
			} else if !types.Comparable(lt, rt) {
				// An ADT may register its own ordering operator.
				if fn, err := c.cat.ADTs().ResolveOperator(x.Op, []types.Type{lt, rt}); err == nil {
					b := mk(OpADT, fn.Result)
					b.Fn = fn
					return b, nil
				}
				return nil, ast.Errorf(x, "cannot compare %s and %s with %s", lt, rt, x.Op)
			}
		}
		return mk(OpCompare, types.Boolean), nil
	case "in":
		if rt != nil && !types.IsCollection(rt) {
			return nil, ast.Errorf(x, "in requires a collection on the right, got %s", rt)
		}
		return mk(OpMember, types.Boolean), nil
	case "contains":
		if lt != nil && !types.IsCollection(lt) {
			return nil, ast.Errorf(x, "contains requires a collection on the left, got %s", lt)
		}
		return mk(OpMember, types.Boolean), nil
	case "union", "intersect", "diff":
		for _, t := range []types.Type{lt, rt} {
			if t != nil && !types.IsCollection(t) {
				return nil, ast.Errorf(x, "%s requires sets, got %s", x.Op, t)
			}
		}
		t := lt
		if t == nil {
			t = rt
		}
		return mk(OpSet, t), nil
	case "+", "-", "*", "/", "%":
		if lt != nil && rt != nil {
			if lt.Kind().IsNumeric() && rt.Kind().IsNumeric() {
				pt, err := types.Promote(lt, rt)
				if err != nil {
					return nil, ast.Errorf(x, "%s", err)
				}
				if x.Op == "/" && pt.Kind().IsInteger() {
					// EXCESS integer division stays integral.
				}
				return mk(OpArith, pt), nil
			}
			if x.Op == "+" && lt.Kind().IsString() && rt.Kind().IsString() {
				return mk(OpArith, types.Varchar), nil
			}
			// ADT operator overloads (Complex +, Date -, ...).
			if fn, err := c.cat.ADTs().ResolveOperator(x.Op, []types.Type{lt, rt}); err == nil {
				b := mk(OpADT, fn.Result)
				b.Fn = fn
				return b, nil
			}
			return nil, ast.Errorf(x, "operator %s undefined for %s and %s", x.Op, lt, rt)
		}
		return mk(OpArith, lt), nil
	}
	// A registered ADT operator symbol.
	if lt != nil && rt != nil {
		fn, err := c.cat.ADTs().ResolveOperator(x.Op, []types.Type{lt, rt})
		if err != nil {
			return nil, ast.Errorf(x, "%s", err)
		}
		b := mk(OpADT, fn.Result)
		b.Fn = fn
		return b, nil
	}
	return nil, ast.Errorf(x, "unknown operator %s", x.Op)
}

func isRefLike(t types.Type) bool {
	switch t.(type) {
	case *types.Ref, *types.TupleType:
		return true
	}
	return false
}

func (c *Checker) bindCall(x *ast.Call) (Expr, error) {
	// Aggregates spelled as calls: count(E.kids).
	if x.Recv == nil && len(x.Args) == 1 &&
		(builtinAggs[strings.ToLower(x.Name)] || c.cat.ADTs().HasSetFunc(x.Name)) {
		return c.bindAggregate(&ast.Aggregate{
			Position: x.Position, Op: x.Name, Arg: x.Args[0],
		})
	}
	var args []Expr
	if x.Recv != nil {
		recv, err := c.bindExpr(x.Recv)
		if err != nil {
			return nil, err
		}
		args = append(args, recv)
	}
	for _, a := range x.Args {
		b, err := c.bindExpr(a)
		if err != nil {
			return nil, err
		}
		args = append(args, b)
	}
	argTypes := make([]types.Type, len(args))
	for i, a := range args {
		argTypes[i] = a.Type()
	}
	// EXCESS function (schema-type receiver resolves through the lattice).
	var recvTT *types.TupleType
	if len(args) > 0 && argTypes[0] != nil {
		recvTT, _ = effectiveTuple(argTypes[0])
	}
	if fn, ok := c.cat.FindFunction(x.Name, recvTT); ok && len(fn.Params) == len(args) {
		for i, p := range fn.Params {
			if argTypes[i] != nil && !types.AssignableTo(argTypes[i], p.Type) {
				if tt, okT := effectiveTuple(argTypes[i]); !okT || !assignableTuple(tt, p.Type) {
					return nil, ast.Errorf(x, "argument %d of %s: %s not assignable to %s", i+1, x.Name, argTypes[i], p.Type)
				}
			}
		}
		return &FuncCall{Fn: fn, Name: x.Name, Args: args, T: fn.Returns.Type}, nil
	}
	// ADT member function: by receiver class or any class (symmetric call
	// syntax "Add(a, b)").
	if len(args) > 0 && argTypes[0] != nil {
		if at, isADT := argTypes[0].(*types.ADT); isADT {
			if fn, err := c.cat.ADTs().ResolveFunc(at.Name, x.Name, argTypes); err == nil {
				return &ADTCall{Fn: fn, Args: args}, nil
			}
		}
	}
	if fn, err := c.cat.ADTs().ResolveAnyFunc(x.Name, argTypes); err == nil {
		return &ADTCall{Fn: fn, Args: args}, nil
	}
	// A zero-argument tuple constructor: "Holder()" builds an all-null
	// instance (the field form parses as TupleLit directly).
	if tt, okT := c.cat.TupleType(x.Name); okT && x.Recv == nil && len(args) == 0 {
		return &TupleCtor{TT: tt}, nil
	}
	return nil, ast.Errorf(x, "unknown function %s", x.Name)
}

// assignableTuple allows passing an object where a schema supertype is
// expected.
func assignableTuple(tt *types.TupleType, want types.Type) bool {
	switch w := want.(type) {
	case *types.TupleType:
		return tt.IsSubtypeOf(w)
	case *types.Ref:
		return tt.IsSubtypeOf(w.Target)
	}
	return false
}

func (c *Checker) bindAggregate(x *ast.Aggregate) (Expr, error) {
	op := strings.ToLower(x.Op)
	isSetFn := c.cat.ADTs().HasSetFunc(x.Op)
	if !builtinAggs[op] && !isSetFn {
		return nil, ast.Errorf(x, "unknown aggregate %s", x.Op)
	}
	if c.inAgg {
		return nil, ast.Errorf(x, "nested aggregates are not supported")
	}
	c.inAgg = true
	arg, err := c.bindExpr(x.Arg)
	c.inAgg = false
	if err != nil {
		return nil, err
	}
	setArg := arg.Multi() || (arg.Type() != nil && types.IsCollection(arg.Type()))
	a := &Agg{Op: op, Arg: arg, SetArg: setArg}
	if isSetFn {
		a.Op = x.Op
	}
	if setArg && len(x.By) > 0 {
		return nil, ast.Errorf(x, "by does not apply to an aggregate over a set-valued argument")
	}
	if setArg && x.Over != nil {
		return nil, ast.Errorf(x, "over does not apply to an aggregate over a set-valued argument")
	}
	for _, g := range x.By {
		bg, err := c.bindExpr(g)
		if err != nil {
			return nil, err
		}
		a.By = append(a.By, bg)
	}
	if x.Over != nil {
		if a.Over, err = c.bindExpr(x.Over); err != nil {
			return nil, err
		}
	}
	// Result typing.
	elemT := arg.Type()
	if setArg {
		if el, ok := types.ElemOf(arg.Type()); ok {
			elemT = el.Type
		}
	}
	switch {
	case isSetFn:
		sf, ok := c.cat.ADTs().SetFuncFor(a.Op, elemT)
		if !ok {
			return nil, ast.Errorf(x, "set function %s does not apply to elements of type %s", a.Op, elemT)
		}
		a.SetFn = sf
		a.T = sf.Result(elemT)
	case op == "count":
		a.T = types.Int4
	case op == "avg":
		a.T = types.Float8
	case op == "sum":
		if elemT != nil && elemT.Kind() == types.KFloat4 || elemT != nil && elemT.Kind() == types.KFloat8 {
			a.T = types.Float8
		} else {
			a.T = types.Int4
		}
	default: // min, max
		a.T = elemT
	}
	if op == "sum" || op == "avg" {
		if elemT != nil && !elemT.Kind().IsNumeric() {
			return nil, ast.Errorf(x, "%s requires numeric values, got %s", op, elemT)
		}
	}
	return a, nil
}

func (c *Checker) bindSetLit(x *ast.SetLit) (Expr, error) {
	s := &SetCtor{}
	var elemT types.Type
	for _, e := range x.Elems {
		b, err := c.bindExpr(e)
		if err != nil {
			return nil, err
		}
		if elemT == nil {
			elemT = b.Type()
		}
		s.Elems = append(s.Elems, b)
	}
	if elemT == nil {
		elemT = types.Int4
	}
	s.T = &types.Set{Elem: types.Component{Mode: types.Own, Type: elemT}}
	return s, nil
}

func (c *Checker) bindTupleLit(x *ast.TupleLit) (Expr, error) {
	tt, ok := c.cat.TupleType(x.TypeName)
	if !ok {
		return nil, ast.Errorf(x, "unknown schema type %s", x.TypeName)
	}
	ctor := &TupleCtor{TT: tt}
	seen := map[string]bool{}
	for _, f := range x.Fields {
		a, okA := tt.Attr(f.Name)
		if !okA {
			return nil, ast.Errorf(x, "type %s has no attribute %s", tt.Name, f.Name)
		}
		if seen[f.Name] {
			return nil, ast.Errorf(x, "attribute %s assigned twice", f.Name)
		}
		seen[f.Name] = true
		b, err := c.bindExpr(f.Expr)
		if err != nil {
			return nil, err
		}
		if err := c.checkAssignable(b, a.Comp, f.Name); err != nil {
			return nil, ast.Errorf(x, "%s", err)
		}
		ctor.Fields = append(ctor.Fields, FieldInit{Name: f.Name, Expr: b})
	}
	return ctor, nil
}

// checkAssignable validates storing an expression into a component slot.
func (c *Checker) checkAssignable(e Expr, comp types.Component, what string) error {
	if comp.Mode != types.RefTo && comp.Mode != types.OwnRef {
		// "$N" stored into an own slot takes the slot's declared type,
		// giving Prepare a typed parameter for "append ... (age = $2)".
		c.inferPlaceholder(e, comp.Type)
	}
	t := e.Type()
	if t == nil {
		return nil // null is assignable anywhere
	}
	// An empty brace literal is the empty value of any collection type.
	if sc, isCtor := e.(*SetCtor); isCtor && len(sc.Elems) == 0 && types.IsCollection(comp.Type) {
		return nil
	}
	tt, isObj := effectiveTuple(t)
	switch comp.Mode {
	case types.RefTo, types.OwnRef:
		want, _ := comp.Type.(*types.TupleType)
		if isObj && want != nil && tt.IsSubtypeOf(want) {
			return nil
		}
		return fmt.Errorf("%s: need a %s reference, got %s", what, comp.Type, t)
	default:
		if types.AssignableTo(t, comp.Type) {
			return nil
		}
		// A brace literal serves as the constructor for arrays too; the
		// length of a fixed array is checked when the value is stored.
		if at, isArr := comp.Type.(*types.Array); isArr {
			if st, isSet := t.(*types.Set); isSet && types.AssignableTo(st.Elem.Type, at.Elem.Type) {
				return nil
			}
		}
		if isObj {
			if want, okW := comp.Type.(*types.TupleType); okW && tt.IsSubtypeOf(want) {
				return nil // copying an object's value into an own slot
			}
		}
		return fmt.Errorf("%s: %s not assignable to %s", what, t, comp.Type)
	}
}
