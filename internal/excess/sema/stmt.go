package sema

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/excess/ast"
	"repro/internal/types"
)

// CheckRetrieve binds a retrieve statement.
func (c *Checker) CheckRetrieve(r *ast.Retrieve) (*CheckedRetrieve, error) {
	if err := c.bindFrom(r.From); err != nil {
		return nil, err
	}
	out := &CheckedRetrieve{Into: r.Into}
	for i, t := range r.Targets {
		b, err := c.bindExpr(t.Expr)
		if err != nil {
			return nil, err
		}
		name := t.Name
		if name == "" {
			name = defaultColName(t.Expr, i)
		}
		out.Targets = append(out.Targets, TargetCol{Name: name, Expr: b})
	}
	var where Expr
	if r.Where != nil {
		var err error
		if where, err = c.bindExpr(r.Where); err != nil {
			return nil, err
		}
		if where.Type() != nil && where.Type().Kind() != types.KBool {
			return nil, ast.Errorf(r.Where, "where clause must be boolean, got %s", where.Type())
		}
		bad := false
		WalkAggs(where, func(a *Agg) {
			if !a.SetArg {
				bad = true
			}
		})
		if bad {
			return nil, ast.Errorf(r.Where, "query-level aggregates are not allowed in where clauses; aggregate a set-valued path instead")
		}
	}
	groups, agg, err := c.checkGroupedTargets(out.Targets, where)
	if err != nil {
		return nil, ast.Errorf(r, "%s", err)
	}
	out.GroupBy, out.Aggregated = groups, agg
	out.Query = c.query(where)
	// Universal variables may constrain, never be produced.
	for _, t := range out.Targets {
		var bad *Var
		WalkExpr(t.Expr, func(x Expr) {
			if vr, ok := x.(*VarRef); ok && vr.Var.Universal {
				bad = vr.Var
			}
		})
		if bad != nil {
			return nil, ast.Errorf(r, "universally quantified variable %s cannot appear in the target list", bad.Name)
		}
	}
	return out, nil
}

// defaultColName derives a result column name from the target expression.
func defaultColName(e ast.Expr, i int) string {
	if p, ok := e.(*ast.Path); ok {
		if n := len(p.Steps); n > 0 {
			return p.Steps[n-1].Name
		}
		return p.Root
	}
	if cl, ok := e.(*ast.Call); ok {
		return cl.Name
	}
	if ag, ok := e.(*ast.Aggregate); ok {
		return ag.Op
	}
	return fmt.Sprintf("col%d", i+1)
}

// CheckAppend binds an append statement.
func (c *Checker) CheckAppend(a *ast.Append) (*CheckedAppend, error) {
	if err := c.bindFrom(a.From); err != nil {
		return nil, err
	}
	out := &CheckedAppend{}
	// Resolve the target collection.
	if len(a.To.Steps) == 0 && a.To.RootIndex == nil {
		dv, ok := c.cat.Var(a.To.Root)
		if !ok {
			return nil, ast.Errorf(a.To, "unknown database variable %s", a.To.Root)
		}
		elem, isSet := dv.ElemType()
		if !isSet {
			return nil, ast.Errorf(a.To, "%s is not a collection", a.To.Root)
		}
		out.Extent = a.To.Root
		out.Elem = elem
	} else {
		base, steps, elem, err := c.bindCollectionPath(a.To)
		if err != nil {
			return nil, err
		}
		switch b := base.(type) {
		case *VarRef:
			out.Owner = b
		case *DBVarRead:
			out.OwnerVar = b.Name
		default:
			return nil, ast.Errorf(a.To, "cannot append through %s", a.To)
		}
		out.Steps = steps
		out.Elem = elem
	}
	// Bind the new element.
	switch {
	case len(a.Fields) > 0:
		ett, ok := out.Elem.Type.(*types.TupleType)
		if !ok {
			return nil, ast.Errorf(a, "field-form append requires a tuple element type, %s has elements of type %s", a.To, out.Elem.Type)
		}
		if out.Elem.Mode == types.RefTo {
			return nil, ast.Errorf(a, "%s holds references; append an existing object, not a new one", a.To)
		}
		tl := &ast.TupleLit{Position: a.Position, TypeName: ett.Name}
		tl.Fields = a.Fields
		ctor, err := c.bindTupleLit(tl)
		if err != nil {
			return nil, err
		}
		out.Ctor = ctor.(*TupleCtor)
	case a.Value != nil:
		v, err := c.bindExpr(a.Value)
		if err != nil {
			return nil, err
		}
		if err := c.checkAssignable(v, out.Elem, "append value"); err != nil {
			return nil, ast.Errorf(a, "%s", err)
		}
		out.Value = v
	default:
		return nil, ast.Errorf(a, "append requires field assignments or a value")
	}
	var where Expr
	if a.Where != nil {
		var err error
		if where, err = c.bindExpr(a.Where); err != nil {
			return nil, err
		}
	}
	out.Query = c.query(where)
	return out, nil
}

// lookupUpdatableVar resolves the variable of a delete/replace: it must
// already be bound (from clause or session range) and must bind objects
// or collection elements that can be located for mutation.
func (c *Checker) lookupUpdatableVar(pos ast.Node, name string) (*Var, error) {
	v, ok := c.vars[name]
	if !ok {
		sv, err := c.bindSessionVar(name)
		if err != nil {
			return nil, err
		}
		if sv == nil {
			return nil, ast.Errorf(pos, "unknown range variable %s", name)
		}
		v = sv
	}
	if v.Universal {
		return nil, ast.Errorf(pos, "cannot update through universally quantified variable %s", name)
	}
	return v, nil
}

// CheckDelete binds a delete statement.
func (c *Checker) CheckDelete(d *ast.Delete) (*CheckedDelete, error) {
	if err := c.bindFrom(d.From); err != nil {
		return nil, err
	}
	v, err := c.lookupUpdatableVar(d, d.Var)
	if err != nil {
		return nil, err
	}
	var where Expr
	if d.Where != nil {
		if where, err = c.bindExpr(d.Where); err != nil {
			return nil, err
		}
	}
	return &CheckedDelete{Query: c.query(where), Var: v}, nil
}

// CheckReplace binds a replace statement.
func (c *Checker) CheckReplace(r *ast.Replace) (*CheckedReplace, error) {
	if err := c.bindFrom(r.From); err != nil {
		return nil, err
	}
	v, err := c.lookupUpdatableVar(r, r.Var)
	if err != nil {
		return nil, err
	}
	tt := v.TupleElem()
	if tt == nil {
		return nil, ast.Errorf(r, "replace requires %s to range over objects", r.Var)
	}
	out := &CheckedReplace{Var: v}
	for _, f := range r.Fields {
		a, ok := tt.Attr(f.Name)
		if !ok {
			return nil, ast.Errorf(r, "type %s has no attribute %s", tt.Name, f.Name)
		}
		b, err := c.bindExpr(f.Expr)
		if err != nil {
			return nil, err
		}
		if err := c.checkAssignable(b, a.Comp, f.Name); err != nil {
			return nil, ast.Errorf(r, "%s", err)
		}
		out.Assigns = append(out.Assigns, Assignment{Attr: f.Name, Comp: a.Comp, Expr: b})
	}
	var where Expr
	if r.Where != nil {
		if where, err = c.bindExpr(r.Where); err != nil {
			return nil, err
		}
	}
	out.Query = c.query(where)
	return out, nil
}

// CheckSet binds a set statement. The left-hand side is a singleton or
// array database variable, optionally indexed.
func (c *Checker) CheckSet(s *ast.SetStmt) (*CheckedSet, error) {
	if err := c.bindFrom(s.From); err != nil {
		return nil, err
	}
	dv, ok := c.cat.Var(s.LHS.Root)
	if !ok {
		return nil, ast.Errorf(s.LHS, "unknown database variable %s", s.LHS.Root)
	}
	if len(s.LHS.Steps) > 0 {
		return nil, ast.Errorf(s.LHS, "set assigns to a variable or an array slot, not a nested path; use replace for attributes")
	}
	out := &CheckedSet{VarName: s.LHS.Root}
	if s.LHS.RootIndex != nil {
		at, isArr := dv.Comp.Type.(*types.Array)
		if !isArr {
			return nil, ast.Errorf(s.LHS, "%s is not an array", s.LHS.Root)
		}
		idx, err := c.bindExpr(s.LHS.RootIndex)
		if err != nil {
			return nil, err
		}
		out.Index = idx
		out.Comp = at.Elem
	} else {
		out.Comp = dv.Comp
	}
	rhs, err := c.bindExpr(s.RHS)
	if err != nil {
		return nil, err
	}
	if err := c.checkAssignable(rhs, out.Comp, s.LHS.Root); err != nil {
		return nil, ast.Errorf(s, "%s", err)
	}
	out.RHS = rhs
	var where Expr
	if s.Where != nil {
		if where, err = c.bindExpr(s.Where); err != nil {
			return nil, err
		}
	}
	out.Query = c.query(where)
	return out, nil
}

// CheckExecute binds a procedure invocation.
func (c *Checker) CheckExecute(e *ast.Execute) (*CheckedExecute, error) {
	proc, ok := c.cat.Procedure(e.Name)
	if !ok {
		return nil, ast.Errorf(e, "unknown procedure %s", e.Name)
	}
	if err := c.bindFrom(e.From); err != nil {
		return nil, err
	}
	if len(e.Args) != len(proc.Params) {
		return nil, ast.Errorf(e, "procedure %s takes %d arguments, got %d", e.Name, len(proc.Params), len(e.Args))
	}
	out := &CheckedExecute{Proc: proc}
	for i, a := range e.Args {
		b, err := c.bindExpr(a)
		if err != nil {
			return nil, err
		}
		p := proc.Params[i]
		if bt := b.Type(); bt != nil && !types.AssignableTo(bt, p.Type) {
			if tt, okT := effectiveTuple(bt); !okT || !assignableTuple(tt, p.Type) {
				return nil, ast.Errorf(e, "argument %d of %s: %s not assignable to %s", i+1, e.Name, bt, p.Type)
			}
		}
		out.Args = append(out.Args, b)
	}
	var where Expr
	if e.Where != nil {
		var err error
		if where, err = c.bindExpr(e.Where); err != nil {
			return nil, err
		}
	}
	out.Query = c.query(where)
	return out, nil
}

// BuildFunction resolves a define-function statement and registers the
// function in cat, checking its body in the parameter scope. The body
// sees no session's range declarations: a function is schema, which
// every session calls and a dump or the log restores, so it may name
// only its parameters and the database. A failed check leaves the
// function registered: the caller drops the statement's write.
func BuildFunction(cat *catalog.Catalog, d *ast.DefineFunction) (*catalog.Function, error) {
	f := &catalog.Function{Name: d.Name, Late: d.Late}
	seen := map[string]bool{}
	for _, p := range d.Params {
		t, err := cat.ResolveType(p.Type)
		if err != nil {
			return nil, err
		}
		if seen[p.Name] {
			return nil, ast.Errorf(&p, "duplicate parameter %s", p.Name)
		}
		seen[p.Name] = true
		f.Params = append(f.Params, catalog.FuncParam{Name: p.Name, Type: t})
	}
	ret, err := cat.ResolveComponent(d.Returns)
	if err != nil {
		return nil, err
	}
	f.Returns = ret
	if strings.HasPrefix(d.Name, "\x00") {
		return nil, fmt.Errorf("invalid function name")
	}
	f.Expr = d.Expr
	f.Query = d.Query
	if f.Expr == nil && f.Query == nil && !d.DeclOnly {
		return nil, fmt.Errorf("function %s has no body", d.Name)
	}
	// The signature is registered before the body is checked, so that
	// recursive derived data can name itself (and "declare function"
	// forward declarations enable mutual recursion). A body that does not
	// check fails the statement, whose write the caller drops. Definition-
	// time body checking is what the paper's data-abstraction story
	// requires.
	if _, err := cat.DefineFunction(f); err != nil {
		return nil, err
	}
	if d.DeclOnly {
		return f, nil
	}
	ck := NewFrameChecker(cat, NewSession(), Frame(f.Params))
	switch {
	case d.Expr != nil:
		b, err := ck.bindExpr(d.Expr)
		if err != nil {
			return nil, fmt.Errorf("function %s: %w", d.Name, err)
		}
		if bt := b.Type(); bt != nil && !types.AssignableTo(bt, ret.Type) {
			if tt, okT := effectiveTuple(bt); !okT || !assignableTuple(tt, ret.Type) {
				return nil, fmt.Errorf("function %s returns %s, body has type %s", d.Name, ret.Type, bt)
			}
		}
	case d.Query != nil:
		if _, err := ck.CheckRetrieve(d.Query); err != nil {
			return nil, fmt.Errorf("function %s: %w", d.Name, err)
		}
	}
	return f, nil
}

// Frame is the parameter frame of a function or procedure: its
// parameters in declaration order.
func Frame(params []catalog.FuncParam) []Param {
	frame := make([]Param, len(params))
	for i, p := range params {
		frame[i] = Param{Name: p.Name, T: p.Type}
	}
	return frame
}

// BuildProcedure resolves a define-procedure statement. Body statements
// are checked at execution time against the then-current catalog, in
// IDM stored-command style; only the parameter declarations are resolved
// here.
func BuildProcedure(cat *catalog.Catalog, d *ast.DefineProcedure) (*catalog.Procedure, error) {
	p := &catalog.Procedure{Name: d.Name, Body: d.Body}
	seen := map[string]bool{}
	for _, prm := range d.Params {
		t, err := cat.ResolveType(prm.Type)
		if err != nil {
			return nil, err
		}
		if seen[prm.Name] {
			return nil, ast.Errorf(&prm, "duplicate parameter %s", prm.Name)
		}
		seen[prm.Name] = true
		p.Params = append(p.Params, catalog.FuncParam{Name: prm.Name, Type: t})
	}
	return p, nil
}

// ProbeRange validates a range declaration by binding it against the
// current catalog (used at declaration time for early errors).
func (c *Checker) ProbeRange(d *ast.RangeDecl) (*Var, error) {
	return c.bindRangeSource(d.Var, d.All, d.Src)
}
